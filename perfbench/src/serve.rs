//! The serving session of miss-cold's traced run: one client process (one
//! connection, a sender and a receiver thread) drives `delin_serve --socket
//! --workers 2` on an open-loop schedule at a fixed rate, about a third of
//! the daemon's capacity. The daemon is warm-started with `--cache-file`
//! from a file primed (untimed) on the miss-cold pool; about four requests
//! in five repeat a primed unit and one in five is a fresh unit from the
//! same generator. Its latencies were too unsteady on a shared 2-vCPU VM to
//! be an end-to-end workload (see `perfbench/README.md`), so it feeds only
//! the serving layers' per-layer metrics.

use crate::gen::{self, Rng};
use crate::stats::{describe, median, percentile};
use crate::{batch_config, fresh_cache, note, oracle_sample, record, Args, WORKERS};
use delin_dep::budget::CancelToken;
use delin_vic::batch::{BatchConfig, BatchJob, BatchRunner, BatchUnit};
use delin_vic::json::{self, Json};
use delin_vic::persist;
use delin_vic::serve::{serve, ServeConfig};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Primed units; fresh requests continue the generator past them.
const POOL: usize = 4000;
/// Offered load in requests per second.
const RATE: f64 = 1000.0;
/// One request in this many is a fresh unit.
const FRESH_ONE_IN: u64 = 5;
/// How long the receiver waits for stragglers after the schedule ends.
const DRAIN: Duration = Duration::from_secs(5);
/// Concrete pairs the soundness oracle checks per run.
const ORACLE_PAIRS: usize = 200;

/// The request stream: the pool to prime with, then the scheduled units.
fn requests(seed: u64, count: usize) -> (Vec<BatchUnit>, Vec<BatchUnit>) {
    let pool: Vec<BatchUnit> = gen::miss_units(seed, 0, POOL).into_iter().map(|g| g.unit).collect();
    let mut rng = Rng::new(seed ^ 0x5e12_7e0f);
    let mut fresh = POOL;
    let stream = (0..count)
        .map(|_| {
            if rng.chance(1, FRESH_ONE_IN) {
                fresh += 1;
                gen::miss_unit(seed, fresh - 1).unit
            } else {
                pool[rng.range(0, POOL as i64 - 1) as usize].clone()
            }
        })
        .collect();
    (pool, stream)
}

/// The analyze request line (newline-terminated) for `unit`, id `q{k}`.
fn request_line(k: usize, unit: &BatchUnit) -> String {
    let mut line = format!("{{\"id\":\"q{k}\",\"name\":");
    json::write_str(&mut line, &unit.name);
    line.push_str(",\"source\":");
    json::write_str(&mut line, &unit.source);
    let bounds: Vec<String> = unit
        .assumptions
        .iter()
        .map(|(sym, lb)| format!("{}:{lb}", json::str_token(sym.name())))
        .collect();
    if !bounds.is_empty() {
        line.push_str(&format!(",\"assumptions\":{{{}}}", bounds.join(",")));
    }
    line.push_str("}\n");
    line
}

/// A running daemon, its first connection, and its stderr so far. Dropping
/// it without [`Daemon::stop`] (an error path) still interrupts and reaps
/// the daemon.
struct Daemon {
    child: Child,
    conn: Option<UnixStream>,
    stderr: BufReader<ChildStderr>,
    seen: String,
}

impl Daemon {
    /// Interrupts the daemon (it drains and flushes its cache file), waits
    /// for it, and returns its stderr. It writes only a few summary lines,
    /// so nothing needs to drain the pipe while it serves.
    fn stop(mut self) -> Result<String, String> {
        self.conn = None;
        interrupt(self.child.id());
        let mut err = std::mem::take(&mut self.seen);
        let _ = self.stderr.read_to_string(&mut err);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        // SIGINT ends the daemon with the conventional 130.
        if status.code() != Some(130) {
            return Err(format!("delin_serve exited with {status}: {err}"));
        }
        Ok(err)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.conn = None;
            interrupt(self.child.id());
            let _ = self.child.wait();
        }
    }
}

fn interrupt(pid: u32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGINT: i32 = 2;
    // SAFETY: kill(2) takes plain integers; `pid` is our own child, which
    // has not been waited on yet, so the pid cannot have been reused.
    unsafe {
        kill(pid as i32, SIGINT);
    }
}

/// The set-up a serving user pays: decode the request trace, then spawn
/// the daemon (which loads its cache file) and wait until its socket
/// accepts. Returns the seconds taken and the running daemon.
fn start(
    args: &Args,
    trace: &Path,
    primed: &Path,
) -> Result<(f64, Vec<BatchUnit>, Daemon), String> {
    let cache_file = args.out.join(format!("serve-{}-daemon.cache", args.seed));
    std::fs::copy(primed, &cache_file).map_err(|e| format!("copy cache file: {e}"))?;
    let socket = args.out.join(format!("serve-{}.sock", args.seed));
    let _ = std::fs::remove_file(&socket);
    let exe = args.bin_dir.join("delin_serve");
    let t0 = Instant::now();
    let units = delin_corpus::trace::read_all(trace).map_err(|e| e.to_string())?;
    // The one connection may hold the whole global admission bound: under
    // the default per-connection quota of 8, an 8 ms VM stall at 1,000/s
    // would already draw `overloaded` answers.
    let mut child = Command::new(&exe)
        .args(["--socket".as_ref(), socket.as_os_str()])
        .args(["--workers", &WORKERS.to_string(), "--conn-quota", "64"])
        .args(["--cache-file".as_ref(), cache_file.as_os_str()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let mut stderr = BufReader::new(child.stderr.take().ok_or("daemon stderr")?);
    let mut seen = String::new();
    loop {
        let mut line = String::new();
        if stderr.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            let _ = child.wait();
            return Err(format!("delin_serve ended before serving: {seen}"));
        }
        seen.push_str(&line);
        if line.starts_with("persistent-cache: loaded=") {
            break;
        }
    }
    let conn = loop {
        match UnixStream::connect(&socket) {
            Ok(c) => break c,
            Err(_) if t0.elapsed() < Duration::from_secs(30) => {
                std::thread::sleep(Duration::from_micros(100))
            }
            Err(e) => {
                interrupt(child.id());
                let _ = child.wait();
                return Err(format!("connect {}: {e}", socket.display()));
            }
        }
    };
    let elapsed = t0.elapsed().as_secs_f64();
    Ok((elapsed, units, Daemon { child, conn: Some(conn), stderr, seen }))
}

/// What the open loop observed.
struct Load {
    /// Per request: nanoseconds from start to the actual send.
    sent: Vec<u64>,
    /// Per request: nanoseconds from start to its response, if any.
    recv: Vec<Option<u64>>,
    /// Per request: the response line.
    lines: Vec<Option<String>>,
    /// Requests sent but unanswered when the last one was sent.
    backlog: usize,
}

/// Nanoseconds from start at which request `k` is due.
fn due_ns(k: usize) -> u64 {
    (k as f64 * 1e9 / RATE) as u64
}

/// Sends every line on schedule from one thread while another reads the
/// responses, over one connection.
fn open_loop(conn: &UnixStream, lines: &[String]) -> Result<Load, String> {
    let n = lines.len();
    let mut writer = conn.try_clone().map_err(|e| e.to_string())?;
    let reader = conn.try_clone().map_err(|e| e.to_string())?;
    reader.set_read_timeout(Some(Duration::from_millis(50))).map_err(|e| e.to_string())?;
    let received = AtomicUsize::new(0);
    let sent: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let start = Instant::now() + Duration::from_millis(5);
    let deadline = start + Duration::from_nanos(due_ns(n)) + DRAIN;
    let (backlog, (recv, got)) = std::thread::scope(|s| {
        let sender = s.spawn(|| -> Result<usize, String> {
            for (k, line) in lines.iter().enumerate() {
                let due = start + Duration::from_nanos(due_ns(k));
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                sent[k].store(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                writer.write_all(line.as_bytes()).map_err(|e| format!("send: {e}"))?;
            }
            Ok(n - received.load(Ordering::SeqCst))
        });
        let receiver = s.spawn(|| {
            let mut recv: Vec<Option<u64>> = vec![None; n];
            let mut got: Vec<Option<String>> = vec![None; n];
            let mut r = BufReader::new(reader);
            let mut buf = String::new();
            while received.load(Ordering::SeqCst) < n && Instant::now() < deadline {
                match r.read_line(&mut buf) {
                    Ok(0) => break,
                    Ok(_) if buf.ends_with('\n') => {
                        let at = start.elapsed().as_nanos() as u64;
                        if let Some(k) = response_index(&buf).filter(|&k| k < n && got[k].is_none())
                        {
                            recv[k] = Some(at);
                            got[k] = Some(buf.trim_end().to_string());
                            received.fetch_add(1, Ordering::SeqCst);
                        }
                        buf.clear();
                    }
                    Ok(_) => {}
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) => {}
                    Err(_) => break,
                }
            }
            (recv, got)
        });
        (sender.join().expect("sender thread"), receiver.join().expect("receiver thread"))
    });
    let backlog = backlog?;
    Ok(Load {
        sent: sent.into_iter().map(AtomicU64::into_inner).collect(),
        recv,
        lines: got,
        backlog,
    })
}

/// The request index of a response line (`{"id":"q<k>",...`).
fn response_index(line: &str) -> Option<usize> {
    let rest = line.strip_prefix("{\"id\":\"q")?;
    rest[..rest.find('"')?].parse().ok()
}

/// Field `key` of a JSON object as an integer.
fn field(obj: &BTreeMap<String, Json>, key: &str) -> u64 {
    obj.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// Tallies of the result responses.
#[derive(Default)]
struct Tally {
    ok: Vec<bool>,
    failed: u64,
    overloaded: u64,
    edges_fp: HashMap<String, u64>,
}

fn tally(load: &Load, units: &[BatchUnit]) -> Tally {
    let mut t = Tally::default();
    for (line, unit) in load.lines.iter().zip(units) {
        let parsed = line.as_deref().and_then(|l| json::parse(l).ok());
        t.ok.push(false);
        let Some(obj) = parsed.as_ref().and_then(Json::as_obj) else {
            t.failed += 1;
            continue;
        };
        let kind = obj.get("type").and_then(Json::as_str);
        let stats = obj.get("stats").and_then(Json::as_obj);
        match (kind, stats) {
            (Some("result"), Some(stats))
                if obj.get("outcome").and_then(Json::as_str) == Some("analyzed")
                    && field(stats, "degraded") == 0 =>
            {
                *t.ok.last_mut().expect("pushed above") = true;
                if let Some(fp) = obj
                    .get("edges_fp")
                    .and_then(Json::as_str)
                    .and_then(|h| u64::from_str_radix(h, 16).ok())
                {
                    t.edges_fp.insert(unit.name.clone(), fp);
                }
            }
            _ => {
                t.failed += 1;
                t.overloaded +=
                    u64::from(obj.get("error").and_then(Json::as_str) == Some("overloaded"));
            }
        }
    }
    t
}

/// Every result response must equal, byte for byte, the in-process
/// analysis of the same request line.
fn check_responses(lines: &[String], load: &Load, violations: &mut Vec<String>) {
    let config = ServeConfig {
        batch: BatchConfig { workers: WORKERS, ..ServeConfig::default().batch },
        max_in_flight: lines.len() + 1,
        ..ServeConfig::default()
    };
    let mut out: Vec<u8> = Vec::new();
    serve(std::io::Cursor::new(lines.concat()), &mut out, &config, &CancelToken::new());
    let text = String::from_utf8_lossy(&out);
    let reference: HashMap<usize, &str> =
        text.lines().filter_map(|l| Some((response_index(l)?, l))).collect();
    let mut mismatched = 0;
    for (k, line) in load.lines.iter().enumerate() {
        if let Some(line) = line.as_deref().filter(|l| l.contains("\"type\":\"result\"")) {
            if reference.get(&k) != Some(&line) {
                mismatched += 1;
                if mismatched == 1 {
                    violations
                        .push(format!("response q{k} differs from in-process analysis: {line}"));
                }
            }
        }
    }
    if mismatched > 1 {
        violations.push(format!("{mismatched} responses differ from in-process analysis"));
    }
}

/// One open-loop session against the daemon, with its checks done.
struct Session {
    units: Vec<BatchUnit>,
    lines: Vec<String>,
    primed: PathBuf,
    load: Load,
    tally: Tally,
    /// Per request, from its scheduled send; a failure reads as the drain.
    latencies: Vec<f64>,
    /// Per request, how late the generator sent it.
    late: Vec<f64>,
    oracle_pairs: usize,
    violations: Vec<String>,
}

/// Primes the cache file, starts the daemon, runs `seconds` of the
/// schedule, and checks the responses.
fn session(args: &Args, seconds: f64) -> Result<Session, String> {
    let count = (RATE * seconds).round() as usize;
    let (pool, units) = requests(args.seed, count);
    let trace: PathBuf = args.out.join(format!("serve-{}.trace", args.seed));
    record(&trace, &units)?;
    // Prime the daemon's cache file on the pool (untimed).
    let primed = args.out.join(format!("serve-{}-primed.cache", args.seed));
    let _ = std::fs::remove_file(&primed);
    let prime = BatchConfig { cache_file: Some(primed.clone()), ..batch_config(WORKERS) };
    let stats = BatchRunner::new(prime).run(pool);
    if let Some(e) = stats.persist_error {
        return Err(format!("prime cache file: {e}"));
    }
    note(&format!("primed {} entries", stats.persistent_saved));

    let (setup, decoded, daemon) = start(args, &trace, &primed)?;
    if decoded.len() != count {
        return Err(format!("decoded {} of {count} requests", decoded.len()));
    }
    let lines: Vec<String> = units.iter().enumerate().map(|(k, u)| request_line(k, u)).collect();
    let load = open_loop(daemon.conn.as_ref().expect("connected"), &lines);
    let stderr = daemon.stop()?;
    let load = load?;
    print!("{}", stderr.lines().map(|l| format!("daemon: {l}\n")).collect::<String>());

    let mut violations = Vec::new();
    check_responses(&lines, &load, &mut violations);
    let tally = tally(&load, &units);
    let oracle_pairs = oracle_sample(
        &dedup(&units),
        args.seed,
        ORACLE_PAIRS,
        Some(&tally.edges_fp),
        &mut violations,
    );
    println!("oracle: {oracle_pairs} concrete pairs brute-forced");

    let drain_ms = DRAIN.as_secs_f64() * 1e3;
    // A request that failed or went unanswered misses every latency limit.
    let latencies: Vec<f64> = (0..count)
        .map(|k| match load.recv[k] {
            Some(at) if tally.ok[k] => (at as f64 - due_ns(k) as f64) / 1e6,
            _ => drain_ms,
        })
        .collect();
    let late: Vec<f64> =
        load.sent.iter().enumerate().map(|(k, &s)| (s as f64 - due_ns(k) as f64) / 1e6).collect();
    println!("daemon set-up (decode, spawn, cache-file load, accept): {setup:.4} s");
    println!("latency ms: {}", describe(&latencies));
    let windows: Vec<(f64, f64)> =
        latencies.chunks(RATE as usize).map(|w| (median(w), percentile(w, 90.0))).collect();
    println!("latency p50/p90 by second: {windows:.3?}");
    println!("generator late ms: {}; backlog at schedule end {}", describe(&late), load.backlog);
    println!(
        "requests {count}: completed {}, failed {} (overloaded {})",
        count as u64 - tally.failed,
        tally.failed,
        tally.overloaded
    );
    Ok(Session { units, lines, primed, load, tally, latencies, late, oracle_pairs, violations })
}

/// The serving path's per-layer values for miss-cold's traced run: a
/// serving session of `seconds` on the same seed's pool.
/// Adds its values into `v` and its violations into `violations`; returns
/// the requests attempted and failed.
pub fn layers(
    args: &Args,
    seconds: f64,
    v: &mut BTreeMap<&'static str, f64>,
    violations: &mut Vec<String>,
) -> Result<(u64, u64), String> {
    let s = session(args, seconds)?;
    for (name, value) in serve_values(&s) {
        *v.entry(name).or_insert(0.0) += value;
    }
    violations.extend(s.violations);
    Ok((s.units.len() as u64, s.tally.failed))
}

/// Distinct units of a stream, in first-seen order.
fn dedup(units: &[BatchUnit]) -> Vec<BatchUnit> {
    let mut seen = std::collections::HashSet::new();
    units.iter().filter(|u| seen.insert(u.name.clone())).cloned().collect()
}

/// The serving layers of a session: request parsing, per-request execution
/// through `run_jobs_in` on one worker and an identically seeded cache, the
/// cache-file load, and what the open loop saw.
fn serve_values(s: &Session) -> BTreeMap<&'static str, f64> {
    let parse_us: Vec<f64> = s
        .lines
        .iter()
        .map(|l| {
            let t0 = Instant::now();
            std::hint::black_box(json::parse(l.trim_end()).is_ok());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let loads: Vec<(f64, usize)> = (0..3)
        .map(|_| {
            let cache = fresh_cache();
            let t0 = Instant::now();
            let report = persist::load(&cache, &s.primed);
            (t0.elapsed().as_secs_f64() * 1e3, report.loaded)
        })
        .collect();

    let cache = fresh_cache();
    persist::load(&cache, &s.primed);
    let runner = BatchRunner::new(batch_config(1));
    let stamps = std::sync::Mutex::new(Vec::with_capacity(s.units.len()));
    let t0 = Instant::now();
    let jobs = s.units.iter().enumerate().map(|(k, u)| BatchJob {
        unit: u.clone(),
        budget: None,
        want_edges: true,
        tag: k as u64,
    });
    let stats = runner.run_jobs_in(jobs, Some(&cache), false, |_, _| {
        stamps.lock().expect("stamps").push(t0.elapsed().as_secs_f64());
    });
    let exec_wall = t0.elapsed().as_secs_f64();
    let stamps = stamps.into_inner().expect("stamps");
    let exec_ms: Vec<f64> = stamps
        .iter()
        .zip(std::iter::once(&0.0).chain(&stamps))
        .map(|(e, s)| (e - s) * 1e3)
        .collect();
    let exec = median(&exec_ms);
    println!("exec ms per request: {}; exec pass {exec_wall:.3} s", describe(&exec_ms));

    let mut v = BTreeMap::new();
    v.insert("cache.disk_hits", stats.persistent_hits as f64);
    v.insert("persist.load_ms", median(&loads.iter().map(|l| l.0).collect::<Vec<_>>()));
    v.insert("persist.loaded", loads[0].1 as f64);
    v.insert("serve.parse_us", median(&parse_us));
    v.insert("serve.exec_ms_p50", exec);
    v.insert("serve.overhead_ms_p50", median(&s.latencies) - exec);
    v.insert("serve.lat_p99_ms", percentile(&s.latencies, 99.0));
    v.insert("serve.lat_p99_n", s.latencies.len() as f64);
    v.insert("serve.overloaded", s.tally.overloaded as f64);
    v.insert("loadgen.late_p99_ms", percentile(&s.late, 99.0));
    v.insert("loadgen.backlog", s.load.backlog as f64);
    v.insert("workload.utilization_pct", 100.0 * exec / 1e3 * RATE / WORKERS as f64);
    v.insert("oracle.pairs", s.oracle_pairs as f64);
    v
}
