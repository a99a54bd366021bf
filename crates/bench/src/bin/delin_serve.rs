//! Analysis as a service: the long-lived jsonl daemon over the batch
//! engine ([`delin_vic::serve`]).
//!
//! Reads newline-delimited JSON requests from stdin (default) or a Unix
//! socket, and streams one JSON response per request — verdict edges,
//! scheduling-independent statistics, degradation reasons — tagged with the
//! client's request id. See the README's "Serving" section for the
//! request/response schemas.
//!
//! Flags:
//!
//! * `--workers N` — total worker budget for the analysis pool (default:
//!   auto / `DELIN_WORKERS`);
//! * `--max-in-flight N` — global admission bound: requests in flight at
//!   once across all connections; further requests are rejected with an
//!   `overloaded` error (default 64);
//! * `--nodes N` — default per-request solver-node budget (overridden by a
//!   request's own `budget.nodes`);
//! * `--deadline-ms N` — default per-request deadline, enforced from the
//!   moment each request's analysis starts (overridden by
//!   `budget.deadline_ms`);
//! * `--cache-file PATH` — persistent verdict cache: seed the shared cache
//!   from `PATH` before serving and rewrite it atomically after, so a
//!   restarted daemon answers repeat requests from disk;
//! * `--cache-cap N` — bound the shared cache to `N` entries with LRU
//!   eviction (default: `DELIN_CACHE_CAP`, 0 = unbounded);
//! * `--socket PATH` — serve **concurrent** connections on a Unix socket
//!   instead of stdin/stdout, multiplexed onto one worker pool and one
//!   shared verdict cache. A client's `{"shutdown": true}` ends its own
//!   session; SIGINT drains and ends the daemon.
//! * `--max-connections N` — concurrent connection cap (default 8); excess
//!   connections get one `{"type":"error","error":"busy",...}` line;
//! * `--conn-quota N` — per-connection in-flight quota under the global
//!   bound (default 8): a greedy client draws `overloaded` while other
//!   connections still admit;
//! * `--idle-timeout-ms N` — end a connection that sends nothing for `N`
//!   ms with a structured `idle_timeout` error (default 30000; 0 disables).
//!
//! The last three apply to socket mode. Both transports run the same serve
//! loop ([`serve_connections`]): stdin/stdout is a single connection that
//! may hold the whole `--max-in-flight` bound, and its `{"shutdown": true}`
//! ends the session and the process. Either way the binary owns the verdict
//! cache: it loads `--cache-file` before serving (stderr
//! `persistent-cache: loaded=N rejected=M`, printed in socket mode once the
//! socket is bound) and saves it after. The exit report on stderr is one
//! `serve: connections=… busy=… admitted=… completed=… rejected=…
//! cancels=… errors=… idle_timeouts=… client_gone=…` line, plus
//! `persistent-cache: loaded=N hits=M saved=S` with a cache file.
//!
//! Ctrl-C trips the daemon-wide [`CancelToken`]: admission stops, in-flight
//! requests degrade conservatively (their responses still flush, attributed
//! `cancelled`), the report prints, and the process exits with the
//! conventional 130. The wakeup is event-driven end to end: the signal
//! handler writes one byte to a self-pipe; in socket mode a watcher thread
//! turns that into a loopback connection that unblocks `accept`; readers
//! observe the token at their next read-timeout probe (a blocked stdin read
//! at its next line or EOF).

use delin_dep::budget::CancelToken;
use delin_vic::cache::VerdictCache;
use delin_vic::persist;
use delin_vic::serve::multi::{serve_connections, Accept, MultiConfig};
use delin_vic::serve::{ServeConfig, ServeSummary};
use std::io::{BufReader, ErrorKind};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicI32, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

const USAGE: &str = "usage: delin_serve [--workers N] [--max-in-flight N] [--nodes N] \
[--deadline-ms N] [--cache-file PATH] [--cache-cap N] [--socket PATH] \
[--max-connections N] [--conn-quota N] [--idle-timeout-ms N]";

/// How often a blocked connection read wakes to probe the idle clock and
/// the shutdown token (the OS-level read timeout set on accepted sockets).
const READ_PROBE: Duration = Duration::from_millis(100);

fn main() {
    let cli = delin_bench::cli::Cli::from_env("delin_serve", USAGE);
    cli.validate_or_exit(
        &[],
        &[
            "--workers",
            "--max-in-flight",
            "--nodes",
            "--deadline-ms",
            "--cache-file",
            "--cache-cap",
            "--socket",
            "--max-connections",
            "--conn-quota",
            "--idle-timeout-ms",
        ],
    );
    let shutdown = install_ctrl_c();
    let mut config = ServeConfig::default();
    if let Some(workers) = cli.count_or_exit("--workers") {
        config.batch.workers = workers;
    }
    if let Some(bound) = cli.count_or_exit("--max-in-flight") {
        config.max_in_flight = bound;
    }
    if let Some(nodes) = cli.count_or_exit("--nodes") {
        config.batch.budget.node_limit = nodes as u64;
    }
    if let Some(ms) = cli.count_or_exit("--deadline-ms") {
        config.batch.budget.deadline_ms = Some(ms as u64);
    }
    if let Some(cap) = cli.count_or_exit("--cache-cap") {
        config.batch.cache_cap = cap;
    }
    let cache_file = cli.string("--cache-file").map(PathBuf::from);
    // Parsed unconditionally so a malformed value exits 2 in either mode,
    // even though only socket mode consumes them.
    let idle_timeout_ms = cli.count_or_exit("--idle-timeout-ms");
    let max_connections = cli.count_or_exit("--max-connections").unwrap_or(8);
    let conn_quota = cli.count_or_exit("--conn-quota").unwrap_or(8);

    // Bound before the cache file loads, so a client that waits for the
    // `persistent-cache: loaded=` line can connect at once.
    let socket = cli.string("--socket").map(|path| {
        let path = PathBuf::from(path);
        let _ = std::fs::remove_file(&path);
        match UnixListener::bind(&path) {
            Ok(listener) => (path, listener),
            Err(e) => {
                eprintln!("delin_serve: socket {path:?}: {e}");
                std::process::exit(1);
            }
        }
    });
    let cache = VerdictCache::bounded(config.batch.cache_cap);
    let loaded = cache_file.as_deref().map_or(0, |file| {
        let report = persist::load(&cache, file);
        eprintln!("persistent-cache: loaded={} rejected={}", report.loaded, report.rejected);
        report.loaded
    });
    let summary = match socket {
        Some((path, listener)) => {
            config.idle_timeout_ms = match idle_timeout_ms {
                Some(0) => None,
                Some(ms) => Some(ms as u64),
                None => Some(30_000),
            };
            let multi = MultiConfig { serve: config, max_connections, conn_quota };
            spawn_sigint_waker(path.clone());
            let acceptor = SocketAcceptor { listener, shutdown: &shutdown };
            let summary = serve_connections(acceptor, &multi, &shutdown, Some(&cache));
            let _ = std::fs::remove_file(&path);
            summary
        }
        None => {
            let mut stdio = Some((BufReader::new(std::io::stdin()), std::io::stdout()));
            let single = MultiConfig::single_stream(config);
            serve_connections(move || Ok(stdio.take()), &single, &shutdown, Some(&cache))
        }
    };
    report(&summary);
    if let Some(file) = &cache_file {
        let saved = persist::save(&cache, file).unwrap_or_else(|e| {
            eprintln!("persistent-cache: flush failed: {e}");
            0
        });
        eprintln!(
            "persistent-cache: loaded={loaded} hits={} saved={saved}",
            summary.batch.persistent_hits
        );
    }
    if shutdown.is_cancelled() {
        eprintln!("delin_serve: interrupted; in-flight requests degraded conservatively");
        std::process::exit(130);
    }
}

/// Accepts Unix-socket connections for [`serve_connections`]. Blocking
/// accept; the SIGINT watcher wakes it with a loopback connection, which
/// the shutdown re-check then converts into `Ok(None)` (end of accepting).
struct SocketAcceptor<'a> {
    listener: UnixListener,
    shutdown: &'a CancelToken,
}

impl Accept for SocketAcceptor<'_> {
    type Reader = BufReader<UnixStream>;
    type Writer = UnixStream;
    fn accept(&mut self) -> std::io::Result<Option<(Self::Reader, Self::Writer)>> {
        loop {
            if self.shutdown.is_cancelled() {
                return Ok(None);
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.shutdown.is_cancelled() {
                        return Ok(None);
                    }
                    // A stream that cannot be set up is one aborted
                    // connection, which the serve loop skips.
                    let writer = stream
                        .set_read_timeout(Some(READ_PROBE))
                        .and_then(|()| stream.try_clone())
                        .map_err(|e| std::io::Error::new(ErrorKind::ConnectionAborted, e))?;
                    return Ok(Some((BufReader::new(stream), writer)));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// The exit report, on stderr so stdout stays pure protocol.
fn report(summary: &ServeSummary) {
    eprintln!(
        "serve: connections={} busy={} admitted={} completed={} rejected={} cancels={} \
         errors={} idle_timeouts={} client_gone={}",
        summary.connections,
        summary.rejected_connections,
        summary.admitted,
        summary.completed,
        summary.rejected,
        summary.cancel_requests,
        summary.protocol_errors,
        summary.idle_timeouts,
        summary.client_gone
    );
    if let Some(e) = &summary.io_error {
        eprintln!("serve: transport error: {e}");
    }
}

// Signal wiring mirrors `batch_corpus`: the library crates forbid unsafe
// code, so the unsafe operations — registering a C signal handler and the
// self-pipe it writes — live in the binary. The handler only performs
// async-signal-safe work: one atomic store (the token) and one write(2)
// to the pipe.

const SIGINT: i32 = 2;

static CANCEL: OnceLock<CancelToken> = OnceLock::new();
/// Write end of the self-pipe (-1 until socket mode arms it).
static WAKE_FD: AtomicI32 = AtomicI32::new(-1);

extern "C" fn on_sigint(_signum: i32) {
    if let Some(token) = CANCEL.get() {
        token.cancel();
    }
    let fd = WAKE_FD.load(Ordering::Acquire);
    if fd >= 0 {
        let byte = 1u8;
        // SAFETY: write(2) on a valid pipe fd with a one-byte buffer; it is
        // async-signal-safe by POSIX.
        unsafe {
            write(fd, std::ptr::addr_of!(byte).cast(), 1);
        }
    }
}

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
    fn pipe(fds: *mut i32) -> i32;
    fn write(fd: i32, buf: *const std::ffi::c_void, count: usize) -> isize;
    fn read(fd: i32, buf: *mut std::ffi::c_void, count: usize) -> isize;
}

/// Installs the SIGINT handler once and returns the process-wide token it
/// trips — the daemon-level shutdown token [`serve_connections`] watches.
fn install_ctrl_c() -> CancelToken {
    let token = CANCEL.get_or_init(CancelToken::new).clone();
    // SAFETY: `on_sigint` matches the C `void (*)(int)` handler signature
    // and performs only async-signal-safe operations (see above).
    unsafe {
        signal(SIGINT, on_sigint);
    }
    token
}

/// Arms the event-driven shutdown path for socket mode: the SIGINT handler
/// writes one byte into a self-pipe; this watcher thread blocks on the read
/// end and, when the byte arrives, opens a throwaway loopback connection to
/// `path` so the blocking `accept` wakes and observes the tripped token.
fn spawn_sigint_waker(path: PathBuf) {
    let mut fds = [-1i32; 2];
    // SAFETY: pipe(2) with a valid out-array of two fds.
    if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
        eprintln!("delin_serve: self-pipe unavailable; Ctrl-C may wait for a connection");
        return;
    }
    WAKE_FD.store(fds[1], Ordering::Release);
    let rd = fds[0];
    std::thread::spawn(move || {
        let mut byte = 0u8;
        loop {
            // SAFETY: blocking read(2) on our own pipe's read end.
            let n = unsafe { read(rd, std::ptr::addr_of_mut!(byte).cast(), 1) };
            if n == 1 {
                let _ = UnixStream::connect(&path);
                return;
            }
            if n == 0 {
                return; // write end closed: process is exiting anyway
            }
            // n < 0: EINTR or transient error; retry.
        }
    });
}
