//! The speed reference: three small kernels owned by the benchmark, run
//! between the legs of every rep, against which in-process timings are
//! corrected for the host's drift.
//!
//! Why. On the shared 2-core VM the baseline was taken on, the machine
//! itself drifts, over minutes and by tens of percent: in one quarter of an
//! hour the 24-second medians of the 1×2 plain Hessenberg solve read 0.25 s
//! at the lowest and 0.39 s at the highest (interquartile range 21 % of the
//! median), with process CPU seconds moving in step — it is the machine
//! that changes, not the waiting. Two sets of ten runs can land 25 % apart
//! on that alone, which is the widest regression bound the benchmark may
//! declare.
//!
//! What tracks it. Three readings moved with the solves over that quarter
//! of an hour, each by less than they did: a fused multiply-add loop on
//! cache-resident matrices (arithmetic throughput; its medians ranged
//! 27 %), a triad over arrays far larger than L2 (the memory system; 18 %),
//! and a ping-pong between two threads over `std::sync::mpsc` (what it
//! costs to wake a blocked thread, which every `recv` of a solve pays;
//! 52 %). The solves ranged 38–50 %. Dividing a solve's median by the
//! square root of the product of the three — each at exponent one half,
//! one and a half in sum — left the five kinds of solve the workloads run
//! (1×2 Hessenberg plain and FT, 1×4, 1×2 over TCP, 2×2 QR) with
//! interquartile ranges of 2.9–4.9 % and ranges of 8–12 %. The geometric
//! mean of the first two alone left 5–10 % and 20–28 %, the best single
//! reading (the ping-pong) 6 % and 19 %; on a quarter-step grid of
//! exponents nothing beat one half each by more than a tenth on the worst
//! of the five.
//!
//! How. A [`Probe`] runs the two compute kernels on as many threads as the
//! solve keeps busy (at most the cores), then the ping-pong, and is read
//! once before every leg; the run's speed is the median of those readings
//! (fifty to a hundred of them), and every in-process time of the run is
//! multiplied by it: the metrics read in seconds of a machine on which the
//! kernels take the `REFERENCE_*` times below. The kernels are the
//! benchmark's own code and call nothing of the repo's, so no change to the
//! repo can move them: a faster solver shows in full. The measured speed
//! and the uncorrected medians are printed under the table.
//!
//! Where not. Daemon jobs are a hundred milliseconds of timers and process
//! hand-offs around ten of arithmetic, and the probe cannot run inside the
//! daemon's workers: job latency and throughput are reported as measured.

use std::hint::black_box;
use std::sync::mpsc::channel;
use std::sync::Barrier;
use std::time::Instant;

/// Edge of the FMA kernel's square matrices: three of them (216 KiB) sit
/// in L2.
const EDGE: usize = 96;
/// Products per reading: about 18 ms on the baseline box.
const PRODUCTS: usize = 96;
/// Elements of each of the triad's three arrays (8 MiB each, per thread).
const TRIAD_LEN: usize = 1 << 20;
/// Passes over the arrays per reading: about 6 ms on the baseline box.
const TRIAD_PASSES: usize = 4;
/// Round trips of the ping-pong per reading: about 12 ms on the baseline
/// box.
const ROUND_TRIPS: usize = 300;

/// What the kernels take on the baseline box (2-core Xeon @ 2.1 GHz VM,
/// AVX-512, `target-cpu=native`) on an ordinary minute: seconds of the two
/// compute kernels, seconds of one round trip. Only a scale: it cancels in
/// every comparison between two commits.
pub const REFERENCE_FMA_SECS: f64 = 0.0165;
pub const REFERENCE_TRIAD_SECS: f64 = 0.0063;
pub const REFERENCE_ROUND_TRIP_SECS: f64 = 40e-6;

/// One reading of the probe.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    /// Seconds of the FMA kernel, averaged over the threads.
    pub fma_secs: f64,
    /// Seconds of the triad, averaged over the threads.
    pub triad_secs: f64,
    /// Seconds of one round trip between two threads.
    pub round_trip_secs: f64,
}

impl Reading {
    /// The machine's speed at this reading, as a share of the reference
    /// speed — the factor a measured time is multiplied by: the three
    /// kernels' own speeds, each at exponent one half (see the module text
    /// for where the exponents come from).
    pub fn speed(&self) -> f64 {
        let product = (REFERENCE_FMA_SECS / self.fma_secs)
            * (REFERENCE_TRIAD_SECS / self.triad_secs)
            * (REFERENCE_ROUND_TRIP_SECS / self.round_trip_secs);
        product.sqrt()
    }
}

/// One thread's working set, allocated and touched once so that no reading
/// pays for page faults.
struct Buffers {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
}

impl Buffers {
    fn new() -> Buffers {
        Buffers {
            a: vec![0.5; EDGE * EDGE],
            b: vec![0.25; EDGE * EDGE],
            c: vec![0.0; EDGE * EDGE],
            x: vec![0.0; TRIAD_LEN],
            y: vec![1.0; TRIAD_LEN],
            z: vec![2.0; TRIAD_LEN],
        }
    }

    /// `C += A·B`, `PRODUCTS` times: the inner loop is a contiguous fused
    /// multiply-add the compiler vectorises.
    fn products(&mut self) {
        for _ in 0..PRODUCTS {
            for i in 0..EDGE {
                for k in 0..EDGE {
                    let aik = self.a[i * EDGE + k];
                    let row = &self.b[k * EDGE..(k + 1) * EDGE];
                    for (cv, bv) in self.c[i * EDGE..(i + 1) * EDGE].iter_mut().zip(row) {
                        *cv = aik.mul_add(*bv, *cv);
                    }
                }
            }
            black_box(&mut self.c);
        }
    }

    /// `x = y + 3·z`, `TRIAD_PASSES` times.
    fn triad(&mut self) {
        for _ in 0..TRIAD_PASSES {
            for ((x, y), z) in self.x.iter_mut().zip(&self.y).zip(&self.z) {
                *x = *y + 3.0 * *z;
            }
            black_box(&mut self.x);
        }
    }
}

/// The reference kernels with their buffers, for `threads` threads.
pub struct Probe {
    buffers: Vec<Buffers>,
}

impl Probe {
    pub fn new(threads: usize) -> Probe {
        Probe {
            buffers: (0..threads.max(1)).map(|_| Buffers::new()).collect(),
        }
    }

    /// Run the three kernels now. Every thread runs both compute kernels,
    /// timed from a common start inside the thread; then this thread and one
    /// helper play ping-pong, each blocking in `recv` until the other sends.
    pub fn read(&mut self) -> Reading {
        let threads = self.buffers.len();
        let start = Barrier::new(threads);
        let readings: Vec<(f64, f64)> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .buffers
                .iter_mut()
                .map(|buf| {
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        let t0 = Instant::now();
                        buf.products();
                        let t1 = Instant::now();
                        buf.triad();
                        ((t1 - t0).as_secs_f64(), t1.elapsed().as_secs_f64())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a probe thread panicked"))
                .collect()
        });
        let mean = |f: fn(&(f64, f64)) -> f64| readings.iter().map(f).sum::<f64>() / threads as f64;
        Reading {
            fma_secs: mean(|r| r.0),
            triad_secs: mean(|r| r.1),
            round_trip_secs: round_trip_secs(),
        }
    }
}

/// Seconds of one round trip between this thread and a helper over two
/// `std::sync::mpsc` channels, averaged over [`ROUND_TRIPS`].
fn round_trip_secs() -> f64 {
    let (to_helper, helper_inbox) = channel::<u64>();
    let (to_caller, caller_inbox) = channel::<u64>();
    std::thread::scope(|s| {
        s.spawn(move || {
            for ball in helper_inbox {
                if to_caller.send(ball + 1).is_err() {
                    break;
                }
            }
        });
        let started = Instant::now();
        let mut ball = 0;
        for _ in 0..ROUND_TRIPS {
            to_helper.send(ball).expect("the helper is listening");
            ball = caller_inbox.recv().expect("the helper answers");
        }
        let secs = started.elapsed().as_secs_f64() / ROUND_TRIPS as f64;
        black_box(ball);
        // Dropping the sender ends the helper's loop; the scope joins it.
        drop(to_helper);
        secs
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_take_measurable_time_and_speed_is_finite() {
        let r = Probe::new(2).read();
        assert!(r.fma_secs > 1e-4, "the FMA kernel was optimised away: {r:?}");
        assert!(r.triad_secs > 1e-4, "the triad was optimised away: {r:?}");
        assert!(r.round_trip_secs > 1e-7, "the ping-pong did not block: {r:?}");
        assert!(r.speed().is_finite() && r.speed() > 0.0);
    }

    #[test]
    fn speed_is_one_at_the_reference_and_falls_as_kernels_slow() {
        let at_reference = Reading {
            fma_secs: REFERENCE_FMA_SECS,
            triad_secs: REFERENCE_TRIAD_SECS,
            round_trip_secs: REFERENCE_ROUND_TRIP_SECS,
        };
        assert!((at_reference.speed() - 1.0).abs() < 1e-12);
        // Everything 21 % slower: the correction is 1.21^-1.5 = 1/1.331.
        let slower = Reading {
            fma_secs: 1.21 * REFERENCE_FMA_SECS,
            triad_secs: 1.21 * REFERENCE_TRIAD_SECS,
            round_trip_secs: 1.21 * REFERENCE_ROUND_TRIP_SECS,
        };
        assert!((slower.speed() - 1.0 / 1.331).abs() < 1e-9);
    }
}
