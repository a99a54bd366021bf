//! Cache files and traces are untrusted input: no damage to either makes
//! its reader panic, abort, or allocate past the file's own size.
//!
//! Both formats share one framing (`delin_vic::recfile`): a header, then
//! `u32 len · u64 checksum · payload` records. A counting global allocator
//! records the largest single allocation each thread makes, so the tests
//! can bound what a reader asks for; requests above [`REFUSE`] fail (and
//! the test aborts) instead of reserving the memory. The allocator is
//! global to this binary, which holds only these tests.

use delinearization::corpus::trace::{self, TraceError};
use delinearization::vic::cache::VerdictCache;
use delinearization::vic::persist;
use delinearization::vic::recfile::checksum;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};

/// Tracks the largest single request per thread; frees are not interesting.
struct PeakAlloc;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// Requests above this are refused rather than reserved.
const REFUSE: usize = 256 << 20;

/// Records a request of `size` bytes; `false` refuses it.
fn note(size: usize) -> bool {
    let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
    size <= REFUSE
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if note(layout.size()) {
            System.alloc(layout)
        } else {
            std::ptr::null_mut()
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if note(layout.size()) {
            System.alloc_zeroed(layout)
        } else {
            std::ptr::null_mut()
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if note(new_size) {
            System.realloc(ptr, layout, new_size)
        } else {
            std::ptr::null_mut()
        }
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// Runs `f` and returns its result with the largest single allocation it
/// made on this thread.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.with(|p| p.set(0));
    let out = f();
    (out, PEAK.with(Cell::get))
}

fn temp_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("delin-robust-{tag}-{}.bin", std::process::id()))
}

/// The header of a trace (8-byte magic, `u32` version 1).
const TRACE_HEADER: &[u8] = b"DELINTR\x01\x01\x00\x00\x00";

#[test]
fn a_length_prefix_past_the_end_is_truncation_not_an_allocation() {
    // A header and one frame whose length prefix reads u32::MAX: 24 bytes.
    let mut bytes = TRACE_HEADER.to_vec();
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    bytes.extend_from_slice(&0u64.to_le_bytes());
    assert_eq!(bytes.len(), 24);
    let path = temp_file("u32max");
    std::fs::write(&path, &bytes).unwrap();
    let (result, peak) = peak_of(|| trace::read_all(&path));
    let _ = std::fs::remove_file(&path);
    assert!(matches!(result, Err(TraceError::Truncated { record: 0 })), "{result:?}");
    assert!(peak <= 1 << 20, "read_all allocated {peak} bytes at once for a 24-byte file");
}

/// Allocation a reader may make beyond the file's length: its read buffer
/// and the decoders' capped collection reservations.
const SLACK: usize = 64 << 10;

/// Start offsets of the records of `bytes` whose header is `header_len`
/// bytes long, as far as their length prefixes chain.
fn record_offsets(bytes: &[u8], header_len: usize) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut pos = header_len;
    while let Some(len) = bytes.get(pos..pos + 4) {
        offsets.push(pos);
        pos += 12 + u32::from_le_bytes(len.try_into().unwrap()) as usize;
    }
    offsets
}

/// One random damage of `seed`: flip a bit, truncate, insert or delete a
/// byte (a quarter of them in the first 16 bytes, where the header is), or
/// overwrite a record's length prefix with a random `u32`, or flip a
/// payload bit and re-seal the record's checksum (so the payload decoder,
/// not the framing, meets the damage).
fn mutate(seed: &[u8], offsets: &[usize], kind: usize, rng: &mut SmallRng) -> Vec<u8> {
    let mut bytes = seed.to_vec();
    let span = if rng.gen_bool(0.25) { 16 } else { bytes.len() };
    let at = rng.gen_range(0..span);
    match kind {
        0 => bytes[at] ^= 1 << rng.gen_range(0..8u32),
        1 => bytes.truncate(at),
        2 => bytes.insert(at, rng.gen_range(0..=255u8)),
        3 => {
            bytes.remove(at);
        }
        4 => {
            let start = offsets[rng.gen_range(0..offsets.len())];
            let len: u32 = rng.gen_range(0..=u32::MAX);
            bytes[start..start + 4].copy_from_slice(&len.to_le_bytes());
        }
        _ => {
            let start = offsets[rng.gen_range(0..offsets.len())];
            let len = u32::from_le_bytes(bytes[start..start + 4].try_into().unwrap()) as usize;
            let payload = start + 12..start + 12 + len;
            bytes[rng.gen_range(payload.clone())] ^= 1 << rng.gen_range(0..8u32);
            let sum = checksum(&bytes[payload]);
            bytes[start + 4..start + 12].copy_from_slice(&sum.to_le_bytes());
        }
    }
    bytes
}

#[test]
fn mutated_cache_files_and_traces_never_panic_or_overallocate() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    // (file, header length: magic and version, plus the cache's probe)
    let seeds = [("trace_v1_generated.bin", 12), ("persist_v3_generated.bin", 28)];
    let path = temp_file("mutant");
    let mut rng = SmallRng::seed_from_u64(0xdec0de);
    let mut trace_errors = [0usize; 5];
    for (name, header_len) in seeds {
        let seed = std::fs::read(golden.join(name)).unwrap();
        let offsets = record_offsets(&seed, header_len);
        assert!(offsets.len() > 1, "{name}: the seed holds several records");
        for case in 0..1200 {
            let bytes = mutate(&seed, &offsets, case % 6, &mut rng);
            std::fs::write(&path, &bytes).unwrap();
            let bound = bytes.len() + SLACK;

            let (units, peak) = peak_of(|| trace::read_all(&path));
            assert!(peak <= bound, "{name} case {case}: read_all allocated {peak} > {bound}");
            match units {
                Err(TraceError::BadMagic) => trace_errors[0] += 1,
                Err(TraceError::BadVersion { .. }) => trace_errors[1] += 1,
                Err(TraceError::Truncated { .. }) => trace_errors[2] += 1,
                Err(TraceError::Corrupt { .. }) => trace_errors[3] += 1,
                Err(TraceError::Malformed { .. }) => trace_errors[4] += 1,
                Err(e) => panic!("{name} case {case}: unexpected {e}"),
                Ok(_) => {}
            }

            let cache = VerdictCache::shared();
            let (_, peak) = peak_of(|| persist::load(&cache, &path));
            assert!(peak <= bound, "{name} case {case}: load allocated {peak} > {bound}");
        }
    }
    let _ = std::fs::remove_file(&path);
    // The damage reached every way a trace can fail.
    assert!(trace_errors.iter().all(|&n| n > 0), "trace errors seen: {trace_errors:?}");
}
