//! The corpus trace format: record → replay is lossless and byte-stable,
//! the committed fixture pins the bytes, and every way a trace file can
//! lie — truncation, bit flips, wrong version, wrong magic — is rejected
//! with a structured error naming the first untrusted record.
//!
//! The trust chain is the persistent verdict-cache tier's
//! (`tests/cache_persistence.rs`); both formats share one framing
//! (`delin_vic::recfile`): a file is believed only as far as its magic,
//! version, and per-record length/checksum framing allow. The one
//! deliberate difference is the failure mode — a stale *cache* degrades to
//! a cold start (caches are advisory), while a damaged *trace* is an
//! error (a replay that silently analyzed a shortened corpus would report
//! wrong numbers as if they were the recorded workload's).

use delinearization::corpus::stream::{generated_units, riceps_units};
use delinearization::corpus::trace::{self, TraceError};
use delinearization::numeric::Assumptions;
use delinearization::vic::batch::BatchUnit;
use std::path::{Path, PathBuf};

fn corpus() -> Vec<BatchUnit> {
    riceps_units(Some(120)).chain(generated_units(10, 99)).collect()
}

fn temp_trace(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("delin-trace-{tag}-{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn record_then_replay_is_lossless() {
    let path = temp_trace("roundtrip");
    let units = corpus();
    let written = trace::record(&path, units.clone()).unwrap();
    assert_eq!(written, units.len());

    let back = trace::read_all(&path).unwrap();
    assert_eq!(back.len(), units.len());
    for (a, b) in units.iter().zip(&back) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.source, b.source);
        assert_eq!(a.assumptions, b.assumptions);
        // The strongest statement of "lossless": the units hash alike.
        assert_eq!(a.fingerprint(), b.fingerprint(), "{}", a.name);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn recording_the_same_corpus_twice_is_byte_identical() {
    let a = temp_trace("stable-a");
    let b = temp_trace("stable-b");
    trace::record(&a, corpus()).unwrap();
    trace::record(&b, corpus()).unwrap();
    let bytes_a = std::fs::read(&a).unwrap();
    let bytes_b = std::fs::read(&b).unwrap();
    assert!(!bytes_a.is_empty());
    assert_eq!(bytes_a, bytes_b, "trace bytes must be a pure function of the unit stream");
    // Atomic write: the staging file must not survive a successful record.
    assert!(!a.with_extension("tmp").exists());
    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);
}

#[test]
fn default_lower_bound_environments_survive_the_file() {
    let path = temp_trace("default-lb");
    let unit = BatchUnit::new("env", "REAL W(0:9)\nEND\n")
        .with_assumptions(Assumptions::with_default_lower_bound(2));
    trace::record(&path, [unit]).unwrap();
    let back = trace::read_all(&path).unwrap();
    assert_eq!(back[0].assumptions.default_lower_bound(), 2);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn truncation_stops_at_the_first_incomplete_record() {
    let path = temp_trace("truncated");
    let units = corpus();
    trace::record(&path, units.clone()).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    // Cut inside the final record's payload: every record before it is
    // valid, and the reader names the last one.
    std::fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();
    let last = units.len() - 1;
    match trace::read_all(&path) {
        Err(TraceError::Truncated { record }) => assert_eq!(record, last),
        other => panic!("expected Truncated {{ record: {last} }}, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_bit_flip_is_caught_by_the_record_checksum() {
    let path = temp_trace("bitflip");
    trace::record(&path, corpus()).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    // Flip one payload bit in the second record. Record 0 starts at byte
    // 12 (8 magic + 4 version); its payload length is the u32 there.
    let first_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let second_payload = 12 + 12 + first_len + 12;
    bytes[second_payload + 5] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    assert!(matches!(trace::read_all(&path), Err(TraceError::Corrupt { record: 1 })));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn wrong_version_and_wrong_magic_are_rejected_before_any_record() {
    let path = temp_trace("header");
    trace::record(&path, corpus()).unwrap();
    let good = std::fs::read(&path).unwrap();

    let mut future = good.clone();
    future[8..12].copy_from_slice(&7u32.to_le_bytes());
    std::fs::write(&path, &future).unwrap();
    match trace::read_all(&path) {
        Err(TraceError::BadVersion { found }) => assert_eq!(found, 7),
        other => panic!("expected BadVersion, got {other:?}"),
    }

    let mut alien = good.clone();
    alien[0] = b'X';
    std::fs::write(&path, &alien).unwrap();
    assert!(matches!(trace::read_all(&path), Err(TraceError::BadMagic)));

    // Errors render with enough structure to act on.
    let msg = TraceError::Truncated { record: 41 }.to_string();
    assert!(msg.contains("41"), "{msg}");
    let _ = std::fs::remove_file(&path);
}

/// `tests/golden/trace_v1_generated.bin` was recorded from
/// `generated_units(6, 7)` (two of them symbolic) before traces and cache
/// files shared their framing. It must decode to the live units and
/// re-record to the same bytes.
#[test]
fn committed_trace_decodes_to_the_live_units_and_rerecords_identically() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace_v1_generated.bin");
    let live: Vec<BatchUnit> = generated_units(6, 7).collect();
    assert!(live.iter().any(|u| !u.assumptions.is_empty()), "the corpus has symbolic units");
    let decoded = trace::read_all(&fixture).unwrap();
    assert_eq!(decoded.len(), live.len());
    for (a, b) in live.iter().zip(&decoded) {
        assert_eq!((&a.name, &a.source, &a.assumptions), (&b.name, &b.source, &b.assumptions));
        assert_eq!(a.fingerprint(), b.fingerprint(), "{}", a.name);
    }
    let path = temp_trace("fixture");
    assert_eq!(trace::record(&path, decoded).unwrap(), live.len());
    let same = std::fs::read(&path).unwrap() == std::fs::read(&fixture).unwrap();
    assert!(same, "re-recording the fixture's units changed its bytes");
    let _ = std::fs::remove_file(&path);
}
