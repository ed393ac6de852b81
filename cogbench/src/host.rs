//! Host-speed probe.
//!
//! The benchmark shares its host with other tenants, and the host's speed
//! drifts with their load: a plain CPU loop runs up to 1.9× slower for seconds
//! at a time, and whole 30 s runs drift by 20–50% between busy and quiet
//! minutes. Run-to-run comparisons of raw host time then measure the
//! neighbours, not the program. This module times a fixed kernel that belongs
//! to the benchmark (XOR/popcount over sign words plus a ±w f32 accumulation,
//! the two operation mixes of the packed resonator) at regular intervals while
//! the program runs. The median probe time against [`NOMINAL_PROBE_US`] gives
//! the run's host slowdown factor, and every time metric is reported scaled by
//! it (see [`crate::Report::normalize`]). The program under test never runs
//! this code, so a change to the program cannot move the factor.

use crate::report::median;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Nominal probe time, microseconds: about what the probe takes on the
/// benchmark's 2-vCPU x86-64 reference VM in a quiet period, so that figures
/// from such a period read close to as measured. Only a scale.
pub const NOMINAL_PROBE_US: f64 = 350.0;

/// Least time between two samples while the program runs.
const INTERVAL: Duration = Duration::from_millis(100);

/// Sign words per probe: 512 KiB, so that the probe leans on the cache
/// hierarchy the way the resonator's sign planes do. A probe confined to L1
/// tracked only about half of the slowdown the workloads saw.
const WORDS: usize = 65536;

/// Passes of the kernel per probe.
const PASSES: u64 = 4;

/// Times the fixed kernel at regular intervals.
#[derive(Debug)]
pub struct HostProbe {
    words: Vec<u64>,
    acc: Vec<f32>,
    samples_us: Vec<f64>,
    last: Instant,
    spent: Duration,
}

impl Default for HostProbe {
    fn default() -> Self {
        let mut probe = Self {
            words: (0..WORDS as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            acc: vec![0.0; WORDS / 2],
            samples_us: Vec::new(),
            last: Instant::now(),
            spent: Duration::ZERO,
        };
        probe.sample();
        probe
    }
}

impl HostProbe {
    /// Takes one sample.
    pub fn sample(&mut self) {
        let start = Instant::now();
        let words = black_box(&self.words);
        let mut ones = 0u32;
        for pass in 0..PASSES {
            for (i, w) in words.iter().enumerate() {
                ones = ones.wrapping_add((w ^ pass.wrapping_mul(i as u64)).count_ones());
            }
            for (a, w) in self.acc.iter_mut().zip(words) {
                *a += if (w >> pass) & 1 == 1 { 0.5 } else { -0.25 };
            }
        }
        black_box((ones, &self.acc));
        let elapsed = start.elapsed();
        self.samples_us.push(elapsed.as_secs_f64() * 1e6);
        self.spent += elapsed;
        self.last = Instant::now();
    }

    /// Takes a sample when [`INTERVAL`] has passed since the last one.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= INTERVAL {
            self.sample();
        }
    }

    /// Total time spent probing, which measured phases subtract.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// Host slowdown factor of the run: median probe time / nominal (1.0 on
    /// a quiet reference host, above 1 on a busy one).
    pub fn factor(&self) -> f64 {
        median(&self.samples_us) / NOMINAL_PROBE_US
    }

    /// Samples taken so far.
    pub fn samples(&self) -> usize {
        self.samples_us.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_sample_at_most_once_per_interval_and_account_their_time() {
        let mut probe = HostProbe::default();
        assert_eq!(probe.samples(), 1);
        probe.tick();
        assert_eq!(probe.samples(), 1, "no sample inside the interval");
        std::thread::sleep(INTERVAL);
        probe.tick();
        assert_eq!(probe.samples(), 2);
        assert!(probe.spent() > Duration::ZERO);
        assert!(probe.factor().is_finite() && probe.factor() > 0.0);
    }
}
