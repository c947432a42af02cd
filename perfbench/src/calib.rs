//! Host-speed calibration.
//!
//! A shared 2-vCPU host slows the same code down by tens of percent for
//! seconds to minutes at a time. The benchmark times a fixed probe right
//! before and after every timed stage and rescales the stage's seconds
//! to a reference host that runs the probe in [`REFERENCE_NS`]. The probe
//! is two dependent-load chases of about equal length: one within the
//! L2 cache, which tracks the core's speed, and one over a buffer that
//! misses the TLB and the private caches, which tracks the memory path.
//! It runs on as many threads at once as the stage it brackets (1 for
//! serial replay and store phases, 2 for sharded replay and serving) and
//! reports their mean: a host that slows one of its two cores slows a
//! 2-thread stage but not a serial one. The probe is the benchmark's own
//! code, so a change to the measured program moves the rescaled time
//! exactly as it moves the measured one.

use std::hint::black_box;
use std::time::Instant;

/// 256 KB of `u32`: resident in L2.
const CORE_ENTRIES: usize = 1 << 16;
const CORE_LOADS: usize = 2_000_000;
/// 16 MB of `u32`: past the private caches and the TLB's reach.
const MEM_ENTRIES: usize = 4 << 20;
const MEM_LOADS: usize = 50_000;
/// Probe time on the reference host: 4 ns per L2 load and 100 ns per
/// far load.
pub const REFERENCE_NS: f64 = CORE_LOADS as f64 * 4.0 + MEM_LOADS as f64 * 100.0;
/// Most threads a probe runs on: the benchmark's widest stage.
const MAX_THREADS: usize = 2;
/// A probe this recent still describes the host at a stage boundary.
const FRESH_SECS: f64 = 0.02;

/// One random cycle through `n` entries (Sattolo's algorithm with a
/// fixed xorshift seed), so every load depends on the one before it.
fn cycle(n: usize) -> Vec<u32> {
    let mut next: Vec<u32> = (0..n as u32).collect();
    let mut s = 0x9e37_79b9_7f4a_7c15u64;
    for i in (1..n).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        next.swap(i, (s % i as u64) as usize);
    }
    next
}

fn chase(next: &[u32], from: u32, loads: usize) -> u32 {
    let mut at = from;
    for _ in 0..loads {
        at = next[at as usize];
    }
    black_box(at)
}

pub struct Calibrator {
    core: Vec<u32>,
    mem: Vec<u32>,
    /// Where each thread's far chase resumes, so successive probes walk
    /// on through the buffer instead of re-reading cached entries.
    mem_at: [u32; MAX_THREADS],
    /// When the last probe ended, on how many threads, and its result.
    last: Option<(Instant, usize, f64)>,
}

impl Calibrator {
    pub fn new() -> Self {
        Calibrator {
            core: cycle(CORE_ENTRIES),
            mem: cycle(MEM_ENTRIES),
            mem_at: std::array::from_fn(|i| (i * MEM_ENTRIES / MAX_THREADS) as u32),
            last: None,
        }
    }

    /// Mean nanoseconds the probe takes per thread right now on
    /// `threads` threads (the calling thread alone when 1), reusing a probe
    /// on as many threads that ended less than [`FRESH_SECS`] ago (the end
    /// of the stage before).
    pub fn probe(&mut self, threads: usize) -> f64 {
        assert!((1..=MAX_THREADS).contains(&threads), "probe on {threads} threads");
        if let Some((when, n, ns)) = self.last {
            if n == threads && when.elapsed().as_secs_f64() < FRESH_SECS {
                return ns;
            }
        }
        let (core, mem) = (&self.core, &self.mem);
        let lap = move |from: u32| {
            // One untimed lap brings the core buffer back into L2 after
            // the stage before evicted it.
            let start = chase(core, from % CORE_ENTRIES as u32, CORE_ENTRIES);
            let t = Instant::now();
            chase(core, start, CORE_LOADS);
            let at = chase(mem, from, MEM_LOADS);
            (t.elapsed().as_secs_f64() * 1e9, at)
        };
        let starts = &self.mem_at[..threads];
        let runs: Vec<(f64, u32)> = if threads == 1 {
            vec![lap(starts[0])]
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = starts.iter().map(|&from| s.spawn(move || lap(from))).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("probe thread panicked"))
                    .collect()
            })
        };
        let ns = runs.iter().map(|&(ns, _)| ns).sum::<f64>() / threads as f64;
        for (at, &(_, next)) in self.mem_at.iter_mut().zip(&runs) {
            *at = next;
        }
        self.last = Some((Instant::now(), threads, ns));
        ns
    }
}

/// `secs` measured between probes taking `before` and `after`
/// nanoseconds, rescaled to the reference host.
pub fn rescale(secs: f64, before: f64, after: f64) -> f64 {
    secs * REFERENCE_NS * 2.0 / (before + after)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chase_is_one_cycle() {
        let next = cycle(1000);
        let mut at = 0u32;
        for step in 1..=1000 {
            at = next[at as usize];
            assert!(at != 0 || step == 1000, "cycle closed after {step} loads");
        }
        assert_eq!(at, 0);
    }

    #[test]
    fn rescale_is_identity_at_reference_speed() {
        assert_eq!(rescale(2.0, REFERENCE_NS, REFERENCE_NS), 2.0);
        assert_eq!(rescale(2.0, 2.0 * REFERENCE_NS, 2.0 * REFERENCE_NS), 1.0);
    }
}
