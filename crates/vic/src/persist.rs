//! The persistent verdict-cache tier: a versioned, checksummed,
//! fingerprint-keyed record file.
//!
//! [`save`] serializes every memoized entry of a [`VerdictCache`] — the
//! 128-bit key and the [`CachedOutcome`] — and [`load`] seeds them back
//! into a fresh cache, so a later process starts warm instead of
//! re-solving the whole corpus. The engine's
//! determinism contract makes this safe by construction: per-run statistics
//! are attributed at fold time from key fingerprints, never from live cache
//! state, so a warm run reports byte-for-byte what the cold run reported
//! (the `batch_corpus --verify` warm/cold leg pins exactly that).
//!
//! # Format
//!
//! A small fixed header followed by self-delimiting records:
//!
//! ```text
//! magic    b"DELINVC\x01"                      8 bytes
//! version  u32 LE                              format revision (3)
//! probe    u128 LE                             fingerprint-schema probe
//! record*  u32 len · u64 checksum · payload    until end of file
//! ```
//!
//! The *probe* is the [`Fp128`] fingerprint of a fixed byte string computed
//! by the writing binary. Fingerprints are stable within a build but are
//! **not** a cross-build serialization format (see
//! [`delin_numeric::fp128`]); a binary whose hash schema drifted computes a
//! different probe and rejects the file wholesale instead of silently
//! mis-keying every entry. Wrong magic or version rejects the same way.
//!
//! Each record carries its own length prefix and FxHash checksum, so a
//! truncated tail (a crash mid-write, although [`save`] writes to a
//! temporary file and renames) or a corrupted record is detected at the
//! first bad byte: the valid prefix loads, the rest is ignored. A file that
//! fails validation is *never trusted* — the cache simply starts cold.
//!
//! Two invariants the loader enforces rather than assumes:
//!
//! * **degraded outcomes never load** — they are never written (the cache
//!   refuses to memoize them, and [`save`] skips them besides), and
//!   [`VerdictCache::seed_entry`] rejects any a crafted file might claim,
//!   so a starved run can never poison a warm start;
//! * **test names intern against the engine's static table** — the
//!   `tested_by`/`attempts` fields are `&'static str` in the engine;
//!   records naming unknown tests are rejected rather than leaked.

use crate::cache::{CachedOutcome, VerdictCache};
use delin_dep::dirvec::{Dir, DirVec};
use delin_dep::verdict::{DependenceInfo, Verdict};
use delin_numeric::fp128::Fp128;
use std::hash::Hasher as _;
use std::path::Path;

/// File magic: "DELINVC" plus a format byte.
const MAGIC: &[u8; 8] = b"DELINVC\x01";

/// Format revision; bump on any layout change. Version 3 dropped the
/// distance-direction vectors from dependent verdicts (engine decisions
/// no longer compute them); version 2 dropped the rendered key strings.
pub const VERSION: u32 = 3;

/// The deciding-test / attempt names the engine can produce, used to intern
/// loaded names back to `&'static str`. Must stay a superset of every name
/// `deps::decide` emits ("test" exists for the unit-test suites).
const KNOWN_TESTS: &[&str] = &[
    "delinearization",
    "gcd",
    "siv",
    "svpc",
    "acyclic",
    "loop-residue",
    "banerjee",
    "dir-vectors",
    "degraded",
    "conservative",
    "exact",
    "test",
];

/// What [`load`] did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LoadReport {
    /// Entries seeded into the cache.
    pub loaded: usize,
    /// Records (or whole files) rejected as stale, corrupt, truncated,
    /// wrong-version, duplicate, or otherwise untrustworthy.
    pub rejected: usize,
}

/// The fingerprint-schema probe: a fixed input hashed by *this* binary's
/// [`Fp128`]. Matching probes mean matching fingerprint schemas, which is
/// what makes the persisted 128-bit keys trustworthy.
fn build_probe() -> u128 {
    let mut h = Fp128::new();
    h.write(b"delin-verdict-cache-probe");
    h.write_u128(0x5eed_cafe);
    h.finish128()
}

fn checksum(payload: &[u8]) -> u64 {
    let mut h = fxhash::FxHasher::default();
    h.write(payload);
    h.finish()
}

fn intern(name: &[u8]) -> Option<&'static str> {
    KNOWN_TESTS.iter().find(|k| k.as_bytes() == name).copied()
}

// ---------------------------------------------------------------- encoding

fn push_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn push_u128(b: &mut Vec<u8>, v: u128) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn push_i128(b: &mut Vec<u8>, v: i128) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn push_bytes(b: &mut Vec<u8>, v: &[u8]) {
    push_u32(b, v.len() as u32);
    b.extend_from_slice(v);
}

fn dir_code(d: Dir) -> u8 {
    match d {
        Dir::Lt => 0,
        Dir::Eq => 1,
        Dir::Gt => 2,
        Dir::Le => 3,
        Dir::Ge => 4,
        Dir::Ne => 5,
        Dir::Any => 6,
    }
}

fn dir_from_code(c: u8) -> Option<Dir> {
    Some(match c {
        0 => Dir::Lt,
        1 => Dir::Eq,
        2 => Dir::Gt,
        3 => Dir::Le,
        4 => Dir::Ge,
        5 => Dir::Ne,
        6 => Dir::Any,
        _ => return None,
    })
}

fn encode_dirs(b: &mut Vec<u8>, dirs: &[Dir]) {
    push_u32(b, dirs.len() as u32);
    for &d in dirs {
        b.push(dir_code(d));
    }
}

fn encode_witness(b: &mut Vec<u8>, w: &[i128]) {
    push_u32(b, w.len() as u32);
    for &v in w {
        push_i128(b, v);
    }
}

fn encode_verdict(b: &mut Vec<u8>, v: &Verdict) {
    match v {
        Verdict::Independent => b.push(0),
        Verdict::Dependent { exact, info } => {
            b.push(1);
            b.push(u8::from(*exact));
            push_u32(b, info.dir_vecs.len() as u32);
            for dv in &info.dir_vecs {
                encode_dirs(b, &dv.0);
            }
            match &info.witness {
                None => b.push(0),
                Some(w) => {
                    b.push(1);
                    encode_witness(b, w);
                }
            }
        }
        Verdict::Unknown => b.push(2),
    }
}

fn encode_record(fp: u128, outcome: &CachedOutcome) -> Vec<u8> {
    let mut b = Vec::new();
    push_u128(&mut b, fp);
    push_bytes(&mut b, outcome.tested_by.as_bytes());
    push_u32(&mut b, outcome.attempts.len() as u32);
    for a in &outcome.attempts {
        push_bytes(&mut b, a.as_bytes());
    }
    push_u64(&mut b, outcome.solver_nodes);
    push_u64(&mut b, outcome.refine_queries);
    push_u64(&mut b, outcome.subtree_reuses);
    push_u64(&mut b, outcome.nodes_saved);
    encode_verdict(&mut b, &outcome.verdict);
    // The solver-state tag: always 0 (none). A cache hit never reads the
    // solve trees of the decision it replays, so none are written.
    b.push(0);
    b
}

// ---------------------------------------------------------------- decoding

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let out = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(out)
    }

    fn u8(&mut self) -> Option<u8> {
        self.bytes(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.bytes(4).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        self.bytes(8).and_then(|b| Some(u64::from_le_bytes(b.try_into().ok()?)))
    }

    fn u128(&mut self) -> Option<u128> {
        self.bytes(16).and_then(|b| Some(u128::from_le_bytes(b.try_into().ok()?)))
    }

    fn i128(&mut self) -> Option<i128> {
        self.bytes(16).and_then(|b| Some(i128::from_le_bytes(b.try_into().ok()?)))
    }

    fn blob(&mut self) -> Option<&'a [u8]> {
        let n = self.u32()? as usize;
        self.bytes(n)
    }
}

fn decode_dirs(r: &mut Reader<'_>) -> Option<Vec<Dir>> {
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(dir_from_code(r.u8()?)?);
    }
    Some(out)
}

fn decode_witness(r: &mut Reader<'_>) -> Option<Vec<i128>> {
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(r.i128()?);
    }
    Some(out)
}

fn decode_verdict(r: &mut Reader<'_>) -> Option<Verdict> {
    Some(match r.u8()? {
        0 => Verdict::Independent,
        1 => {
            let exact = match r.u8()? {
                0 => false,
                1 => true,
                _ => return None,
            };
            let n = r.u32()? as usize;
            let mut dir_vecs = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                dir_vecs.push(DirVec(decode_dirs(r)?));
            }
            let witness = match r.u8()? {
                0 => None,
                1 => Some(decode_witness(r)?),
                _ => return None,
            };
            Verdict::Dependent {
                exact,
                info: DependenceInfo { dir_vecs, dist_dirs: Vec::new(), witness },
            }
        }
        2 => Verdict::Unknown,
        _ => return None,
    })
}

fn decode_record(payload: &[u8]) -> Option<(u128, CachedOutcome)> {
    let mut r = Reader::new(payload);
    let fp = r.u128()?;
    let tested_by = intern(r.blob()?)?;
    let n = r.u32()? as usize;
    let mut attempts = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        attempts.push(intern(r.blob()?)?);
    }
    let solver_nodes = r.u64()?;
    let refine_queries = r.u64()?;
    let subtree_reuses = r.u64()?;
    let nodes_saved = r.u64()?;
    let verdict = decode_verdict(&mut r)?;
    match r.u8()? {
        0 => {}
        // A file written while decisions kept their solve trees: read past
        // them (nothing replays them) and keep the verdict.
        1 => {
            for _ in 0..r.u32()? {
                r.u128()?;
                for _ in 0..r.u32()? {
                    decode_dirs(&mut r)?;
                    match r.u8()? {
                        0 => {}
                        1 => {
                            decode_witness(&mut r)?;
                        }
                        _ => return None,
                    }
                    r.u64()?;
                }
            }
        }
        _ => return None,
    }
    if !r.at_end() {
        return None; // trailing garbage inside a checksummed payload
    }
    Some((
        fp,
        CachedOutcome {
            verdict,
            tested_by,
            attempts,
            solver_nodes,
            refine_queries,
            subtree_reuses,
            nodes_saved,
            solver_state: None,
            degraded: None,
        },
    ))
}

// ------------------------------------------------------------------- API

/// Serializes every memoized entry of `cache` to `path`, atomically (write
/// to a sibling temporary file, then rename). Returns the number of records
/// written.
///
/// # Errors
///
/// Propagates filesystem errors from writing or renaming the file.
pub fn save(cache: &VerdictCache, path: &Path) -> std::io::Result<usize> {
    let entries = cache.export_entries();
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    push_u32(&mut out, VERSION);
    push_u128(&mut out, build_probe());
    let mut written = 0usize;
    for (fp, outcome) in &entries {
        if outcome.degraded.is_some() {
            continue; // never persist a degraded verdict
        }
        let payload = encode_record(*fp, outcome);
        push_u32(&mut out, payload.len() as u32);
        push_u64(&mut out, checksum(&payload));
        out.extend_from_slice(&payload);
        written += 1;
    }
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &out)?;
    std::fs::rename(&tmp, path)?;
    Ok(written)
}

/// Seeds `cache` from a file written by [`save`]. Missing files, wrong
/// magic/version, a fingerprint-schema mismatch, and corrupt or truncated
/// tails all degrade to a (partial) cold start — the file is never trusted
/// past the first byte that fails validation.
pub fn load(cache: &VerdictCache, path: &Path) -> LoadReport {
    let mut report = LoadReport::default();
    let Ok(bytes) = std::fs::read(path) else {
        return report; // no file yet: plain cold start
    };
    let mut r = Reader::new(&bytes);
    let header_ok = r.bytes(MAGIC.len()).map(|m| m == MAGIC).unwrap_or(false)
        && r.u32() == Some(VERSION)
        && r.u128() == Some(build_probe());
    if !header_ok {
        report.rejected += 1;
        return report;
    }
    while !r.at_end() {
        let framed = r.u32().and_then(|len| {
            let sum = r.u64()?;
            let payload = r.bytes(len as usize)?;
            (checksum(payload) == sum).then_some(payload)
        });
        let Some(payload) = framed else {
            report.rejected += 1; // truncated or corrupt: ignore the rest
            break;
        };
        match decode_record(payload) {
            Some((fp, outcome)) => {
                if cache.seed_entry(fp, outcome) {
                    report.loaded += 1;
                } else {
                    report.rejected += 1;
                }
            }
            None => {
                report.rejected += 1;
                break; // framing was valid but content was not: stop trusting
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use delin_dep::dirvec::{DistDir, DistDirVec};

    #[test]
    fn dir_codec_round_trips() {
        for d in [Dir::Lt, Dir::Eq, Dir::Gt, Dir::Le, Dir::Ge, Dir::Ne, Dir::Any] {
            assert_eq!(dir_from_code(dir_code(d)), Some(d));
        }
        assert_eq!(dir_from_code(7), None);
    }

    #[test]
    fn intern_covers_engine_test_names() {
        for name in ["delinearization", "gcd", "banerjee", "degraded"] {
            assert!(intern(name.as_bytes()).is_some());
        }
        assert_eq!(intern(b"made-up-test"), None);
    }

    /// Version 1 files (records carrying rendered key strings) and
    /// version 2 files (verdicts carrying distance-direction vectors) are
    /// rejected wholesale: the cache starts cold instead of misreading
    /// their records.
    #[test]
    fn version_one_files_start_cold() {
        for version in [1, 2] {
            let path = std::env::temp_dir()
                .join(format!("delin-persist-v{version}-{}.bin", std::process::id()));
            let mut bytes = MAGIC.to_vec();
            push_u32(&mut bytes, version);
            push_u128(&mut bytes, build_probe());
            std::fs::write(&path, &bytes).unwrap();
            let report = load(&VerdictCache::shared(), &path);
            let _ = std::fs::remove_file(&path);
            assert_eq!(report, LoadReport { loaded: 0, rejected: 1 }, "version {version}");
        }
    }

    #[test]
    fn verdict_codec_round_trips() {
        let verdicts = [
            Verdict::Independent,
            Verdict::Unknown,
            Verdict::Dependent {
                exact: true,
                info: DependenceInfo {
                    dir_vecs: vec![DirVec(vec![Dir::Lt, Dir::Any])],
                    dist_dirs: Vec::new(),
                    witness: Some(vec![1, -2, i128::MAX]),
                },
            },
        ];
        for v in &verdicts {
            let mut b = Vec::new();
            encode_verdict(&mut b, v);
            let mut r = Reader::new(&b);
            assert_eq!(decode_verdict(&mut r).as_ref(), Some(v));
            assert!(r.at_end());
        }
        // Distances are not part of the record: a verdict carrying them
        // (only `DelinearizationTest::test_with_distances` computes any)
        // encodes like the same verdict without.
        let mut with_distances = verdicts[2].clone();
        if let Verdict::Dependent { info, .. } = &mut with_distances {
            info.dist_dirs = vec![DistDirVec(vec![DistDir::Dist(-3), DistDir::Dir(Dir::Ge)])];
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        encode_verdict(&mut a, &with_distances);
        encode_verdict(&mut b, &verdicts[2]);
        assert_eq!(a, b);
    }
}
