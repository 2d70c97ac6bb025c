//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed drifts by tens of percent
//! over minutes, as neighbours load the machine: the same code, timed in
//! two sets of runs a few minutes apart, can differ by more than any useful
//! regression bound. No wall-clock median inside one run removes that.
//!
//! So between timed units of work, outside the timed region, the benchmark
//! runs a short fixed reference kernel, [`Reference`], frozen in this file
//! and independent of the repository's code: random-number draws,
//! transcendental float math, dependent random reads and writes over a
//! small table, and a streaming pass over it. It measures the speed a core
//! gives one thread. (The table fits the first-level cache on purpose:
//! tables larger than the per-core caches tracked the measured workloads
//! worse on a loaded host.) Its time on a quiet host is
//! [`NOMINAL_CHUNK_S`]; its time during a run, over that, is how much
//! slower the host is. The median of these samples over the run is the
//! run's slowdown, and a wall time divided by it is a time in *reference
//! seconds*: what it would have taken on the quiet host. A change to the
//! measured code moves reference seconds exactly as it moves wall seconds;
//! a change in host load moves both, and the division takes most of it
//! out again. Memory-bound slowdowns the kernel does not feel are not
//! taken out.
//!
//! Changing the kernel, its sizes or [`NOMINAL_CHUNK_S`] rescales every
//! reported time, so none of them may change without re-basing every
//! recorded result.

use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

/// One chunk's time, in seconds, on the quiet reference host (2 vCPUs of an
/// Intel Xeon guest, nothing else running).
pub const NOMINAL_CHUNK_S: f64 = 0.0033;

/// Table entries (`f64`): 32 KiB.
const TABLE_LEN: usize = 1 << 12;
/// Random-access steps per chunk.
const STEPS: usize = 120_000;
/// Entries of the streaming pass per chunk.
const STREAM: usize = 1 << 12;

/// The reference kernel and its state; one per thread that runs it.
#[derive(Debug, Clone)]
pub struct Reference {
    table: Vec<f64>,
    rng: u64,
    stream_at: usize,
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

impl Reference {
    /// A kernel with its table allocated and touched.
    #[must_use]
    pub fn new() -> Self {
        let mut r = Reference {
            table: (0..TABLE_LEN).map(|i| i as f64 * 1e-6).collect(),
            rng: 0x9E37_79B9_7F4A_7C15,
            stream_at: 0,
        };
        // Warm the table and the code once before the first timed chunk.
        r.chunk();
        r
    }

    /// Runs one chunk of reference work and returns its wall time in
    /// seconds. One untimed chunk runs first: what the measured code left in
    /// the caches must not move the sample.
    pub fn chunk(&mut self) -> f64 {
        black_box(self.work());
        let t0 = Instant::now();
        black_box(self.work());
        t0.elapsed().as_secs_f64()
    }

    fn work(&mut self) -> f64 {
        let mask = self.table.len() - 1;
        let mut acc = 0.0;
        let mut x = self.rng;
        for _ in 0..STEPS {
            // xorshift64*
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
            let u = ((r >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64);
            let g = (-2.0 * u.ln()).sqrt() * (u * std::f64::consts::TAU).cos();
            let i = (r as usize) & mask;
            let v = self.table[i] * 0.5 + g;
            self.table[i] = v;
            acc += v;
        }
        self.rng = x;
        let from = self.stream_at;
        for v in &mut self.table[from..from + STREAM] {
            *v = v.mul_add(0.999, 1e-3);
            acc += *v;
        }
        self.stream_at = (from + STREAM) & mask;
        acc
    }
}

/// Samples the host's speed with one reference kernel per thread of the
/// measured workload, all running at once: one on the calling thread, the
/// others on helper threads that live as long as the sampler. Helpers are
/// started once, not per sample: threads started and ended around the
/// measured program's own would change which heap arena its threads get,
/// and with it the process's peak resident size.
#[derive(Debug)]
pub struct HostSpeed {
    own: Reference,
    helpers: Vec<Helper>,
    /// Every slowdown sampled, for the report.
    pub samples: Vec<f64>,
}

#[derive(Debug)]
struct Helper {
    go: Option<Sender<()>>,
    done: Receiver<f64>,
    thread: Option<JoinHandle<()>>,
}

impl HostSpeed {
    /// A sampler for a workload that keeps `threads` threads busy.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let helpers = (1..threads.max(1))
            .map(|_| {
                let (go, wait) = channel::<()>();
                let (report, done) = channel::<f64>();
                let thread = std::thread::spawn(move || {
                    let mut kernel = Reference::new();
                    while wait.recv().is_ok() {
                        if report.send(kernel.chunk()).is_err() {
                            return;
                        }
                    }
                });
                Helper {
                    go: Some(go),
                    done,
                    thread: Some(thread),
                }
            })
            .collect();
        HostSpeed {
            own: Reference::new(),
            helpers,
            samples: Vec::new(),
        }
    }

    /// How many times slower than the reference host this host is now: the
    /// mean chunk time over all threads, over [`NOMINAL_CHUNK_S`].
    pub fn sample(&mut self) -> f64 {
        for h in &self.helpers {
            h.go.as_ref()
                .expect("helper running")
                .send(())
                .expect("reference helper stopped");
        }
        let mut total = self.own.chunk();
        for h in &self.helpers {
            total += h.done.recv().expect("reference helper stopped");
        }
        let slowdown = total / (1 + self.helpers.len()) as f64 / NOMINAL_CHUNK_S;
        self.samples.push(slowdown);
        slowdown
    }

    /// The host's slowdown over the run so far: the median of every
    /// sample. Host load shifts over minutes, so one factor per run is
    /// both steadier and as right as a factor per unit of work.
    ///
    /// # Panics
    ///
    /// Panics before the first sample.
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        assert!(!self.samples.is_empty(), "no host-speed sample taken");
        crate::report::median(&self.samples)
    }

    /// Wall seconds in reference seconds.
    #[must_use]
    pub fn ref_s(&self, wall_s: f64) -> f64 {
        wall_s / self.slowdown()
    }
}

impl Drop for HostSpeed {
    /// Stops every helper thread and waits for it to end.
    fn drop(&mut self) {
        for h in &mut self.helpers {
            drop(h.go.take());
            if let Some(t) = h.thread.take() {
                let _ = t.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic() {
        let (mut a, mut b) = (Reference::new(), Reference::new());
        for _ in 0..3 {
            assert_eq!(a.work().to_bits(), b.work().to_bits());
        }
    }

    #[test]
    fn reference_seconds_divide_by_the_median_slowdown() {
        let mut h = HostSpeed::new(1);
        h.samples = vec![1.0, 1.5, 4.0];
        assert_eq!(h.slowdown(), 1.5);
        assert_eq!(h.ref_s(3.0), 2.0);
    }

    #[test]
    fn sampling_runs_one_kernel_per_thread() {
        let mut h = HostSpeed::new(2);
        let s = h.sample();
        assert!(s.is_finite() && s > 0.0);
        assert_eq!(h.samples.len(), 1);
    }
}
