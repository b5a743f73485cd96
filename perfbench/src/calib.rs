//! How fast the shared host runs right now, measured with a fixed kernel
//! that belongs to the benchmark, not to the program under test.
//!
//! The host's speed swings by a quarter to a half over minutes as other
//! tenants' load comes and goes; one workload's wall times moved by that
//! much across ten runs of the same code. The untraced runs therefore
//! report their times in *reference seconds*: the wall seconds of an
//! operation times [`NOMINAL_SECS`] over the kernel's time per pass in
//! samples taken just before and just after it. A slow host slows the
//! kernel too and cancels; a change to the program leaves the kernel
//! alone and shows in full. The wall times are printed beside them.

use crate::stats::median;
use std::time::Instant;

/// Seconds of one kernel pass on the host the bounds in BENCHMARK.json
/// were set on (a 2-vCPU VM on a Xeon), when that host ran quietly.
pub const NOMINAL_SECS: f64 = 0.15;
/// Passes per sample; a sample is their median.
const PASSES: usize = 8;
/// Steps of one thread's dependent floating-point chain in one pass.
const STEPS: u64 = 12_000_000;

/// The kernel samples of one run, in the order they were taken.
pub struct HostSpeed {
    threads: usize,
    samples: Vec<f64>,
}

impl HostSpeed {
    /// A kernel run on `threads` threads at once: as many as the program
    /// under test uses, so that both see the same cores.
    pub fn new(threads: usize) -> Self {
        HostSpeed { threads, samples: Vec::new() }
    }

    /// Times one sample now and returns its index. Take samples around
    /// the operations they scale, never during them.
    pub fn sample(&mut self) -> usize {
        let passes: Vec<f64> = (0..PASSES).map(|_| pass(self.threads)).collect();
        self.samples.push(median(&passes));
        self.samples.len() - 1
    }

    /// The factor that turns wall seconds of work done between samples
    /// `before` and `after` into reference seconds.
    pub fn factor(&self, before: usize, after: usize) -> f64 {
        NOMINAL_SECS / ((self.samples[before] + self.samples[after]) / 2.0)
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Wall seconds of one pass: every thread runs the chain at once.
fn pass(threads: usize) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || std::hint::black_box(chain(t as f64)));
        }
    });
    t0.elapsed().as_secs_f64()
}

/// A dependent chain of fused multiply-adds and square roots: pure core
/// work, so that its time depends on the host's load and not on where in
/// memory a process's pages happen to land.
fn chain(seed: f64) -> f64 {
    let (mut f, mut g) = (1.0 + seed, 0.5f64);
    for i in 0..STEPS {
        f = f.mul_add(1.000_000_1, g * 1e-9);
        g = (g + (i & 7) as f64).sqrt();
    }
    f + g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_scales_by_the_mean_of_the_samples_around_the_work() {
        let speed = HostSpeed { threads: 1, samples: vec![0.1, 0.2, 0.5] };
        assert!((speed.factor(0, 1) - NOMINAL_SECS / 0.15).abs() < 1e-12);
        assert!((speed.factor(1, 2) - NOMINAL_SECS / 0.35).abs() < 1e-12);
    }
}
