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
//! A [`crate::recfile`] file (the framing corpus traces share):
//!
//! ```text
//! magic    b"DELINVC\x01"                      8 bytes
//! version  u32 LE                              format revision (3)
//! stamp    u128 LE                             fingerprint-schema probe
//! record*  u32 len · u64 checksum · payload    until end of file
//! ```
//!
//! This module owns only the payload codec: one record per entry, holding
//! the fingerprint, the deciding test and attempts (interned names), the
//! four work counters, the verdict, and a solver-state tag.
//!
//! The *probe* is the [`Fp128`] fingerprint of a fixed byte string computed
//! by the writing binary. Fingerprints are stable within a build but are
//! **not** a cross-build serialization format (see
//! [`delin_numeric::fp128`]); a binary whose hash schema drifted computes a
//! different probe and rejects the file wholesale instead of silently
//! mis-keying every entry. Wrong magic or version rejects the same way.
//!
//! The framing detects a truncated tail (a crash mid-write, although
//! [`save`] writes to a temporary file and renames) or a corrupted record
//! at the first bad record: the valid prefix loads, the rest is ignored. A
//! file that fails validation is *never trusted* — the cache simply starts
//! cold.
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
use crate::recfile::{self, Cursor, Header, Payload, RecordError, RecordReader};
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

/// The file header, with `probe` (this build's [`build_probe`], little
/// endian) as its stamp.
fn header(probe: &[u8; 16]) -> Header<'_> {
    Header { magic: MAGIC, version: VERSION, stamp: probe }
}

fn intern(name: &[u8]) -> Option<&'static str> {
    KNOWN_TESTS.iter().find(|k| k.as_bytes() == name).copied()
}

// ---------------------------------------------------------------- encoding

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

fn encode_dirs(p: &mut Payload, dirs: &[Dir]) {
    p.u32(dirs.len() as u32);
    for &d in dirs {
        p.u8(dir_code(d));
    }
}

fn encode_witness(p: &mut Payload, w: &[i128]) {
    p.u32(w.len() as u32);
    for &v in w {
        p.i128(v);
    }
}

fn encode_verdict(p: &mut Payload, v: &Verdict) {
    match v {
        Verdict::Independent => p.u8(0),
        Verdict::Dependent { exact, info } => {
            p.u8(1);
            p.u8(u8::from(*exact));
            p.u32(info.dir_vecs.len() as u32);
            for dv in &info.dir_vecs {
                encode_dirs(p, &dv.0);
            }
            match &info.witness {
                None => p.u8(0),
                Some(w) => {
                    p.u8(1);
                    encode_witness(p, w);
                }
            }
        }
        Verdict::Unknown => p.u8(2),
    }
}

fn encode_record(p: &mut Payload, fp: u128, outcome: &CachedOutcome) {
    p.u128(fp);
    p.blob(outcome.tested_by.as_bytes());
    p.u32(outcome.attempts.len() as u32);
    for a in &outcome.attempts {
        p.blob(a.as_bytes());
    }
    p.u64(outcome.solver_nodes);
    p.u64(outcome.refine_queries);
    p.u64(outcome.subtree_reuses);
    p.u64(outcome.nodes_saved);
    encode_verdict(p, &outcome.verdict);
    // The solver-state tag: always 0 (none). A cache hit never reads the
    // solve trees of the decision it replays, so none are written.
    p.u8(0);
}

// ---------------------------------------------------------------- decoding

fn decode_dirs(r: &mut Cursor<'_>) -> Option<Vec<Dir>> {
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(dir_from_code(r.u8()?)?);
    }
    Some(out)
}

fn decode_witness(r: &mut Cursor<'_>) -> Option<Vec<i128>> {
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(r.i128()?);
    }
    Some(out)
}

fn decode_verdict(r: &mut Cursor<'_>) -> Option<Verdict> {
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

fn decode_record(r: &mut Cursor<'_>) -> Option<(u128, CachedOutcome)> {
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
    let verdict = decode_verdict(r)?;
    match r.u8()? {
        0 => {}
        // A file written while decisions kept their solve trees: read past
        // them (nothing replays them) and keep the verdict.
        1 => {
            for _ in 0..r.u32()? {
                r.u128()?;
                for _ in 0..r.u32()? {
                    decode_dirs(r)?;
                    match r.u8()? {
                        0 => {}
                        1 => {
                            decode_witness(r)?;
                        }
                        _ => return None,
                    }
                    r.u64()?;
                }
            }
        }
        _ => return None,
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
    let probe = build_probe().to_le_bytes();
    recfile::write_file(path, &header(&probe), |w| {
        for (fp, outcome) in &entries {
            if outcome.degraded.is_some() {
                continue; // never persist a degraded verdict
            }
            w.record(|p| encode_record(p, *fp, outcome))?;
        }
        Ok(())
    })
}

/// Seeds `cache` from a file written by [`save`]. Missing files, wrong
/// magic/version, a fingerprint-schema mismatch, and corrupt or truncated
/// tails all degrade to a (partial) cold start — the file is never trusted
/// past the first byte that fails validation.
pub fn load(cache: &VerdictCache, path: &Path) -> LoadReport {
    let mut report = LoadReport::default();
    let probe = build_probe().to_le_bytes();
    let mut reader = match RecordReader::open(path, &header(&probe)) {
        Ok(reader) => reader,
        Err(RecordError::Io(_)) => return report, // no file yet: plain cold start
        Err(_) => {
            report.rejected += 1;
            return report;
        }
    };
    loop {
        match reader.next_with(decode_record) {
            Ok(Some((fp, outcome))) => {
                if cache.seed_entry(fp, outcome) {
                    report.loaded += 1;
                } else {
                    report.rejected += 1;
                }
            }
            Ok(None) => return report,
            Err(_) => {
                // Truncated, corrupt or undecodable: stop trusting the rest.
                report.rejected += 1;
                return report;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recfile::RecordWriter;
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
            let probe = build_probe().to_le_bytes();
            let old = Header { version, ..header(&probe) };
            let (bytes, _) = RecordWriter::new(Vec::new(), &old).unwrap().finish().unwrap();
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
            let mut p = Payload::default();
            encode_verdict(&mut p, v);
            let mut r = Cursor::new(p.as_bytes());
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
        let (mut a, mut b) = (Payload::default(), Payload::default());
        encode_verdict(&mut a, &with_distances);
        encode_verdict(&mut b, &verdicts[2]);
        assert_eq!(a.as_bytes(), b.as_bytes());
    }
}
