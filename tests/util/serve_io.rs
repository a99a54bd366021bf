//! Shared in-process transport for the serving-layer test suites: channel
//! backed `Read`/`Write` halves plus a [`Session`] harness that runs the
//! daemon on its own thread and fails loudly (instead of hanging the test
//! binary) when a response never arrives.
#![allow(dead_code)]

use delinearization::dep::budget::CancelToken;
use delinearization::vic::chaos::{FaultyReader, TransportFault};
use delinearization::vic::json::{self, Json};
use delinearization::vic::serve::multi::{serve_connections, MultiConfig};
use delinearization::vic::serve::{serve, ServeConfig, ServeSummary};
use std::io::{BufReader, Read, Write};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender};
use std::time::Duration;

/// How long a test waits for one response line before declaring the daemon
/// hung. Generous: the suites run under load in CI.
pub const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// A `Read` fed by a channel: the test pushes byte chunks, the daemon's
/// reader blocks until one arrives. Dropping the sender is EOF.
pub struct ChannelReader {
    rx: Receiver<Vec<u8>>,
    pending: Vec<u8>,
    pos: usize,
}

impl ChannelReader {
    pub fn new(rx: Receiver<Vec<u8>>) -> ChannelReader {
        ChannelReader { rx, pending: Vec::new(), pos: 0 }
    }
}

impl Read for ChannelReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        while self.pos >= self.pending.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.pending = chunk;
                    self.pos = 0;
                }
                Err(_) => return Ok(0),
            }
        }
        let n = (self.pending.len() - self.pos).min(buf.len());
        buf[..n].copy_from_slice(&self.pending[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// A [`ChannelReader`] with an optional poll interval: when set, a quiet
/// channel yields `WouldBlock` after that long instead of blocking forever
/// — modelling a socket with an OS read timeout, which is what drives the
/// daemon's idle probes and shutdown re-checks.
pub struct PollReader {
    rx: Receiver<Vec<u8>>,
    pending: Vec<u8>,
    pos: usize,
    poll: Option<Duration>,
}

impl PollReader {
    pub fn new(rx: Receiver<Vec<u8>>, poll: Option<Duration>) -> PollReader {
        PollReader { rx, pending: Vec::new(), pos: 0, poll }
    }
}

impl Read for PollReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        while self.pos >= self.pending.len() {
            let chunk = match self.poll {
                None => self.rx.recv().map_err(|_| ()),
                Some(poll) => match self.rx.recv_timeout(poll) {
                    Ok(chunk) => Ok(chunk),
                    Err(RecvTimeoutError::Timeout) => {
                        return Err(std::io::ErrorKind::WouldBlock.into());
                    }
                    Err(RecvTimeoutError::Disconnected) => Err(()),
                },
            };
            match chunk {
                Ok(chunk) => {
                    self.pending = chunk;
                    self.pos = 0;
                }
                Err(()) => return Ok(0),
            }
        }
        let n = (self.pending.len() - self.pos).min(buf.len());
        buf[..n].copy_from_slice(&self.pending[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

enum LineSender {
    Plain(Sender<String>),
    /// Bound-0 channel: the daemon's response write blocks until the test
    /// receives the line. This rendezvous makes admission-control tests
    /// deterministic — a slot stays provably occupied while the test has
    /// not consumed its response.
    Rendezvous(SyncSender<String>),
}

/// A `Write` that turns the daemon's output stream back into lines on a
/// channel.
pub struct ChannelWriter {
    tx: LineSender,
    buf: Vec<u8>,
}

impl Write for ChannelWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(data);
        while let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=pos).collect();
            let line = String::from_utf8(line[..pos].to_vec())
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            let sent = match &self.tx {
                LineSender::Plain(tx) => tx.send(line).is_ok(),
                LineSender::Rendezvous(tx) => tx.send(line).is_ok(),
            };
            if !sent {
                return Err(std::io::ErrorKind::BrokenPipe.into());
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One in-process daemon session: `send` request lines, `recv` response
/// lines, `close` for the final [`ServeSummary`].
pub struct Session {
    input: Option<Sender<Vec<u8>>>,
    output: Receiver<String>,
    handle: Option<std::thread::JoinHandle<ServeSummary>>,
    /// The daemon-level shutdown token (what SIGINT trips in the binary).
    pub shutdown: CancelToken,
}

impl Session {
    /// Spawns the daemon with buffered (non-blocking) response delivery.
    pub fn spawn(config: ServeConfig) -> Session {
        Session::spawn_inner(config, false)
    }

    /// Spawns the daemon with rendezvous response delivery: each response
    /// write blocks until the test `recv`s it (see [`LineSender`]).
    pub fn spawn_rendezvous(config: ServeConfig) -> Session {
        Session::spawn_inner(config, true)
    }

    fn spawn_inner(config: ServeConfig, rendezvous: bool) -> Session {
        let (in_tx, in_rx) = std::sync::mpsc::channel::<Vec<u8>>();
        let (tx, output) = if rendezvous {
            let (tx, rx) = std::sync::mpsc::sync_channel::<String>(0);
            (LineSender::Rendezvous(tx), rx)
        } else {
            let (tx, rx) = std::sync::mpsc::channel::<String>();
            (LineSender::Plain(tx), rx)
        };
        let shutdown = CancelToken::new();
        let token = shutdown.clone();
        let handle = std::thread::spawn(move || {
            serve(
                BufReader::new(ChannelReader::new(in_rx)),
                ChannelWriter { tx, buf: Vec::new() },
                &config,
                &token,
            )
        });
        Session { input: Some(in_tx), output, handle: Some(handle), shutdown }
    }

    /// Sends one request line (newline appended).
    pub fn send(&self, line: &str) {
        self.send_raw(format!("{line}\n").as_bytes());
    }

    /// Sends raw bytes verbatim — for truncated lines, split writes, and
    /// other malformed-transport cases.
    pub fn send_raw(&self, bytes: &[u8]) {
        self.input
            .as_ref()
            .expect("session already closed")
            .send(bytes.to_vec())
            .expect("daemon reader gone");
    }

    /// Receives one response line; panics after [`RESPONSE_TIMEOUT`] so a
    /// hung daemon fails the test instead of wedging the binary.
    pub fn recv(&self) -> String {
        self.output.recv_timeout(RESPONSE_TIMEOUT).expect("daemon hung: no response within timeout")
    }

    /// Closes the input (EOF) and joins the daemon for its summary.
    /// Response lines still in flight remain receivable from `output`.
    pub fn close(&mut self) -> ServeSummary {
        drop(self.input.take());
        self.handle.take().expect("session already closed").join().expect("daemon thread panicked")
    }

    /// Drains every remaining response line after [`Session::close`].
    pub fn drain(&self) -> Vec<String> {
        let mut lines = Vec::new();
        while let Ok(line) = self.output.recv_timeout(RESPONSE_TIMEOUT) {
            lines.push(line);
        }
        lines
    }
}

/// The transport pair the multi-connection harness hands the daemon: a
/// fault-injectable, poll-capable reader and the line-channel writer.
type HarnessConn = (BufReader<FaultyReader<PollReader>>, ChannelWriter);

/// An in-process multi-connection daemon ([`serve_connections`]) driven by
/// a channel-fed acceptor: the test opens connections on demand, each a
/// [`MultiClient`]. Closing the harness ends accepting (the daemon drains
/// every live connection and returns its [`ServeSummary`]).
pub struct MultiHarness {
    accept_tx: Option<Sender<HarnessConn>>,
    handle: Option<std::thread::JoinHandle<ServeSummary>>,
    /// The daemon-level shutdown token (what SIGINT trips in the binary).
    pub shutdown: CancelToken,
}

impl MultiHarness {
    pub fn spawn(config: MultiConfig) -> MultiHarness {
        let (accept_tx, accept_rx) = std::sync::mpsc::channel::<HarnessConn>();
        let shutdown = CancelToken::new();
        let token = shutdown.clone();
        let handle = std::thread::spawn(move || {
            let acceptor = move || Ok(accept_rx.recv().ok());
            serve_connections(acceptor, &config, &token, None)
        });
        MultiHarness { accept_tx: Some(accept_tx), handle: Some(handle), shutdown }
    }

    /// Opens a plain blocking connection.
    pub fn connect(&self) -> MultiClient {
        self.connect_with(None, None, false)
    }

    /// Opens a connection with an injected transport fault, a read-poll
    /// interval (enables idle probing), or rendezvous response delivery
    /// (each response write blocks until the test `recv`s it).
    pub fn connect_with(
        &self,
        fault: Option<TransportFault>,
        poll: Option<Duration>,
        rendezvous: bool,
    ) -> MultiClient {
        let (in_tx, in_rx) = std::sync::mpsc::channel::<Vec<u8>>();
        let (tx, output) = if rendezvous {
            let (tx, rx) = std::sync::mpsc::sync_channel::<String>(0);
            (LineSender::Rendezvous(tx), rx)
        } else {
            let (tx, rx) = std::sync::mpsc::channel::<String>();
            (LineSender::Plain(tx), rx)
        };
        let reader = BufReader::new(FaultyReader::new(PollReader::new(in_rx, poll), fault));
        let writer = ChannelWriter { tx, buf: Vec::new() };
        self.accept_tx
            .as_ref()
            .expect("harness already closed")
            .send((reader, writer))
            .expect("daemon acceptor gone");
        MultiClient { input: Some(in_tx), output: Some(output) }
    }

    /// Ends accepting and joins the daemon for its summary. Live
    /// connections drain first: close or drop the clients' inputs (or
    /// cancel `shutdown`) before calling this, or it will block on them.
    pub fn close(&mut self) -> ServeSummary {
        drop(self.accept_tx.take());
        self.handle.take().expect("harness already closed").join().expect("daemon panicked")
    }
}

/// One client connection of a [`MultiHarness`].
pub struct MultiClient {
    input: Option<Sender<Vec<u8>>>,
    output: Option<Receiver<String>>,
}

impl MultiClient {
    /// Sends one request line (newline appended).
    pub fn send(&self, line: &str) {
        self.send_raw(format!("{line}\n").as_bytes());
    }

    /// Sends raw bytes verbatim.
    pub fn send_raw(&self, bytes: &[u8]) {
        assert!(self.try_send_raw(bytes), "daemon reader gone");
    }

    /// Sends one request line like [`MultiClient::send`], but reports a
    /// daemon that has stopped reading this connection (`false`) instead
    /// of panicking — for a connection whose read side a fault may cut.
    pub fn try_send(&self, line: &str) -> bool {
        self.try_send_raw(format!("{line}\n").as_bytes())
    }

    fn try_send_raw(&self, bytes: &[u8]) -> bool {
        self.input.as_ref().expect("input already closed").send(bytes.to_vec()).is_ok()
    }

    /// Receives one response line; panics after [`RESPONSE_TIMEOUT`] so a
    /// hung daemon fails the test instead of wedging the binary.
    pub fn recv(&self) -> String {
        self.output
            .as_ref()
            .expect("output already dropped")
            .recv_timeout(RESPONSE_TIMEOUT)
            .expect("daemon hung: no response within timeout")
    }

    /// Closes this connection's input: the daemon sees EOF.
    pub fn close_input(&mut self) {
        drop(self.input.take());
    }

    /// Drops the response receiver: the daemon's next write to this
    /// connection fails with `BrokenPipe` — the client-gone case.
    pub fn drop_output(&mut self) {
        drop(self.output.take());
    }

    /// Drains every remaining response line until the connection closes.
    pub fn drain(&self) -> Vec<String> {
        let mut lines = Vec::new();
        if let Some(output) = &self.output {
            while let Ok(line) = output.recv_timeout(RESPONSE_TIMEOUT) {
                lines.push(line);
            }
        }
        lines
    }
}

/// Builds an analyze request line.
pub fn analyze_request(id: &str, source: &str) -> String {
    format!("{{\"id\":{},\"source\":{}}}", json::str_token(id), json::str_token(source))
}

/// Builds an analyze request line with a budget object.
pub fn analyze_request_with(id: &str, source: &str, budget: &str, extra: &str) -> String {
    format!(
        "{{\"id\":{},\"source\":{},\"budget\":{budget}{extra}}}",
        json::str_token(id),
        json::str_token(source)
    )
}

/// Parses a response line (they must all be valid JSON) and returns it.
pub fn parse_response(line: &str) -> Json {
    match json::parse(line) {
        Ok(value) => value,
        Err(e) => panic!("response is not valid JSON ({e}): {line}"),
    }
}

/// The `id` of a response line, `None` when it is JSON `null`.
pub fn response_id(line: &str) -> Option<String> {
    let value = parse_response(line);
    value.as_obj()?.get("id")?.as_str().map(str::to_string)
}

/// The `type` of a response line.
pub fn response_type(line: &str) -> String {
    let value = parse_response(line);
    let ty = value.as_obj().and_then(|m| m.get("type")).and_then(Json::as_str);
    match ty {
        Some(ty) => ty.to_string(),
        None => panic!("response has no type field: {line}"),
    }
}

/// A small mini-FORTRAN unit with a real dependence (a recurrence), so
/// result responses carry a nonempty edge list.
pub const RECURRENCE: &str = "REAL A(0:99)\nDO 1 i = 1, 50\n1   A(i) = A(i - 1)\nEND\n";

/// The paper's flagship independence case: provable only by
/// delinearization, so it exercises delinearization rather than the
/// classical battery.
pub const DELINEARIZED: &str =
    "REAL C(0:399)\nDO 1 i = 0, 4\nDO 1 j = 0, 9\n1   C(i + 10*j) = C(i + 10*j + 5)\nEND\n";

/// Rows that overlap (`A(i + 5*j)` with `i` in `0..=7`): delinearization
/// cannot separate them, so the direction walk needs the exact solver and
/// a starved node budget degrades it.
pub const OVERLAPPING: &str =
    "REAL A(0:99)\nDO 1 j = 0, 3\nDO 1 i = 0, 7\n1   A(i + 5*j) = A(i + 5*j + 2)\nEND\n";

/// [`DELINEARIZED`]'s independent statement beside [`OVERLAPPING`]'s nest.
pub const DELINEARIZED_AND_OVERLAPPING: &str =
    "REAL C(0:399), A(0:99)\nDO 1 i = 0, 4\nDO 1 j = 0, 9\n1   C(i + 10*j) = C(i + 10*j + 5)\n\
     DO 2 j = 0, 3\nDO 2 i = 0, 7\n2   A(i + 5*j) = A(i + 5*j + 2)\nEND\n";
