//! A fixed kernel timed between the repetitions of an end-to-end run, so
//! the run can tell a slow host from slow code.
//!
//! The development host is two vCPUs of a shared machine. Its neighbours
//! slow everything here by 5 to 70 % for seconds to minutes at a time,
//! with no steal time booked and CPU time rising with wall time: the
//! cores are ours, the shared cache and memory are not. Whatever slows
//! a repetition slows this kernel, run in the same seconds, about as
//! much: in the sizing runs a 25 s window whose fastest repetition was
//! 23 to 27 % slow read 5 to 8 % off once divided by the kernel's
//! slowdown (README, "Host calibration"). The kernel is part of the
//! benchmark, not of the program under test, so no later change to the
//! program moves it.

use std::hint::black_box;
use std::time::Instant;

/// What one sample reads on the development host when it is quiet.
/// Timings are scaled by fastest sample / this, so they stay in seconds
/// as that host runs them.
pub const NOMINAL_S: f64 = 0.0945;

/// Register-only xorshift steps: the share of the kernel a neighbour on
/// the memory system cannot slow.
const ALU_STEPS: u64 = 30_000_000;
/// 16 MiB of table, past the private caches, so the random updates go
/// through the cache and memory the neighbours share.
const TABLE_WORDS: usize = 1 << 21;
const TABLE_UPDATES: u64 = 10_000_000;

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// One pass of the kernel; the checksum keeps the optimizer honest.
fn kernel(table: &mut [u64]) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut sum = 0u64;
    for _ in 0..black_box(ALU_STEPS) {
        x = xorshift(x);
        sum = sum.wrapping_add(x & 0xff);
    }
    let mask = table.len() as u64 - 1;
    for _ in 0..black_box(TABLE_UPDATES) {
        x = xorshift(x);
        let slot = &mut table[(x & mask) as usize];
        *slot = slot.wrapping_add(x);
    }
    sum.wrapping_add(table[0])
}

pub struct Calibrator {
    table: Vec<u64>,
    pub samples: Vec<f64>,
}

impl Calibrator {
    /// Allocates the table and runs one discarded pass to page it in.
    pub fn new() -> Calibrator {
        let mut table = vec![0u64; TABLE_WORDS];
        black_box(kernel(&mut table));
        Calibrator {
            table,
            samples: Vec::new(),
        }
    }

    /// Time one pass of the kernel and keep the reading.
    pub fn sample(&mut self) {
        let started = Instant::now();
        black_box(kernel(&mut self.table));
        self.samples.push(started.elapsed().as_secs_f64());
    }

    /// How much slower than a quiet development host this run's quietest
    /// moment was: fastest sample over [`NOMINAL_S`] (1 with no samples).
    /// The fastest, because the timings it scales are fastest-of too.
    pub fn slowdown(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .min_by(f64::total_cmp)
            .map_or(1.0, |fastest| fastest / NOMINAL_S)
    }
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_does_the_same_work_every_pass_and_slowdown_follows_the_fastest_sample() {
        let (mut a, mut b) = (vec![0u64; 1 << 10], vec![0u64; 1 << 10]);
        assert_eq!(kernel(&mut a), kernel(&mut b));
        assert_eq!(a, b);
        assert!(a.iter().any(|&word| word != 0));

        let mut host = Calibrator {
            table: a,
            samples: Vec::new(),
        };
        assert_eq!(host.slowdown(), 1.0);
        host.sample();
        assert!(host.samples[0] > 0.0);
        host.samples = vec![3.0 * NOMINAL_S, 1.5 * NOMINAL_S, 2.0 * NOMINAL_S];
        assert!((host.slowdown() - 1.5).abs() < 1e-12);
    }
}
