//! The machine-speed reference. The 2-vCPU VMs this benchmark runs on change
//! speed over time: the host grants the second vCPU for seconds at a time and
//! then withholds it (two runnable threads then share one vCPU while the
//! other idles, with no CPU steal reported), and single-vCPU speed drifts
//! too, by up to 2.2× for minutes at a stretch. A fixed piece of work of the
//! benchmark's own, timed right before and after every measured pass, tracks
//! that speed; the end-to-end timings are rescaled to the speed at which the
//! reference takes [`NOMINAL_S`]. The reference never calls the program, so
//! a change to the program moves the rescaled timings exactly as it moves
//! the raw ones.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Chunks of reference work per thread; the threads share all the chunks
/// dynamically, as the engine's workers share units.
const CHUNKS_PER_THREAD: usize = 24;
/// Steps of one chunk.
const STEPS: usize = 130_000;
/// Words of each thread's table: 256 KiB, inside a core's private cache.
const TABLE: usize = 1 << 15;

/// Seconds the reference takes at the nominal speed, on one thread or on
/// two: its median on a 2-vCPU VM with both vCPUs granted.
pub const NOMINAL_S: f64 = 0.020;

/// One chunk: random reads and writes into the table and data-dependent
/// branches, the mix of the engine's hashing and probing. It allocates
/// nothing (see [`Reference`]).
fn chunk(seed: u64, table: &mut [u64]) -> u64 {
    let mask = table.len() - 1;
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut acc = 0u64;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[(x as usize) & mask];
        let v = slot.rotate_left(7) ^ x;
        *slot = v;
        if v & 3 == 0 {
            acc = acc.wrapping_add(v >> 3);
        } else {
            acc ^= v.wrapping_mul(0x2545_f491_4f6c_dd1d);
        }
    }
    acc
}

/// Runs chunks from `next` until all `chunks` are taken.
fn share(next: &AtomicUsize, chunks: usize, table: &mut [u64]) -> u64 {
    let mut acc = 0u64;
    loop {
        // Relaxed: the counter only hands out chunk indices; the channel
        // hand-offs order it against the resets.
        let c = next.fetch_add(1, Ordering::Relaxed);
        if c >= chunks {
            return acc;
        }
        acc ^= chunk(c as u64, table);
    }
}

/// The reference, run on the calling thread and, for two threads, one
/// helper thread that lives as long as this value. Both keep their tables
/// for that long and allocate nothing per measurement, so timing the
/// reference neither takes heap arenas the engine's workers reuse nor
/// grows the heap: either moved `peak_rss_mb` by up to 30%.
pub struct Reference {
    table: RefCell<Vec<u64>>,
    next: Arc<AtomicUsize>,
    go: Option<SyncSender<usize>>,
    done: Receiver<u64>,
    helper: Option<JoinHandle<()>>,
}

impl Reference {
    /// Starts the helper thread and runs the reference once, untimed.
    pub fn start() -> Self {
        let next = Arc::new(AtomicUsize::new(0));
        let (go, go_rx) = sync_channel::<usize>(0);
        let (done_tx, done) = sync_channel::<u64>(0);
        let shared = Arc::clone(&next);
        let helper = std::thread::spawn(move || {
            let mut table = vec![0u64; TABLE];
            while let Ok(chunks) = go_rx.recv() {
                if done_tx.send(share(&shared, chunks, &mut table)).is_err() {
                    break;
                }
            }
        });
        let reference = Self {
            table: RefCell::new(vec![0; TABLE]),
            next,
            go: Some(go),
            done,
            helper: Some(helper),
        };
        reference.measure(2);
        reference
    }

    /// Wall seconds of the reference work for `threads` threads (1 or 2),
    /// on that many. On two vCPUs the two-thread figure also tracks how
    /// much of the second vCPU the host grants, which the engine's two
    /// workers see too.
    pub fn measure(&self, threads: usize) -> f64 {
        assert!(threads == 1 || threads == 2, "the reference runs on one or two threads");
        let chunks = CHUNKS_PER_THREAD * threads;
        self.next.store(0, Ordering::Relaxed);
        let t0 = Instant::now();
        let go = self.go.as_ref().expect("the helper runs until drop");
        if threads == 2 {
            go.send(chunks).expect("the reference helper panicked");
        }
        let mut acc = share(&self.next, chunks, &mut self.table.borrow_mut());
        if threads == 2 {
            acc ^= self.done.recv().expect("the reference helper panicked");
        }
        std::hint::black_box(acc);
        t0.elapsed().as_secs_f64()
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        // Closing the channel ends the helper's loop. A helper panic has
        // already surfaced in `measure`.
        self.go = None;
        if let Some(helper) = self.helper.take() {
            let _ = helper.join();
        }
    }
}

/// The factor that rescales a time measured between two references, taking
/// `before` and `after` seconds, to the nominal speed.
pub fn scale(before: f64, after: f64) -> f64 {
    2.0 * NOMINAL_S / (before + after)
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_reference_does_fixed_work() {
        let mut a = vec![0u64; super::TABLE];
        let mut b = vec![0u64; super::TABLE];
        assert_eq!(super::chunk(3, &mut a), super::chunk(3, &mut b));
        assert_eq!(a, b);
        assert_ne!(super::chunk(4, &mut a), super::chunk(5, &mut b));
        let reference = super::Reference::start();
        assert!(reference.measure(1) > 0.0 && reference.measure(2) > 0.0);
        assert_eq!(super::scale(super::NOMINAL_S, super::NOMINAL_S), 1.0);
    }
}
