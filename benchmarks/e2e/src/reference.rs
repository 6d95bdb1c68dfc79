//! The host's speed, sampled beside everything the benchmark times.
//!
//! The host the benchmark was sized on is a shared two-core VM whose speed
//! changes by 10-25% from one minute to the next, for every workload alike
//! (see `benchmarks/README.md`). A wall-clock time taken there says as much
//! about the minute it was taken in as about the program. So each timed
//! item — one set-up, one `Simulation::run` — is bracketed by samples of a
//! fixed arithmetic kernel that shares no code with the repository, and
//! its time is divided by how much slower than nominal the kernel ran just
//! then. What the benchmark reports is the time the item would have taken
//! on a host on which one kernel tick takes `NOMINAL_TICK_S`.

use std::hint::black_box;
use std::time::Instant;

/// Kernel iterations per tick and thread: about 20 ms on the sizing host.
const TICK_ITERATIONS: usize = 13_000_000;
/// What a tick takes on the sizing host when nothing disturbs it. Times
/// are reported as if every tick took this long.
pub const NOMINAL_TICK_S: f64 = 0.020;

/// 128 independent multiply-add chains that stay in registers and L1: its
/// speed follows the core's clock and what its sibling hardware thread is
/// doing, and nothing a change to the repository can touch.
fn kernel(iterations: usize) -> f32 {
    let mut acc = [1.0f32; 128];
    let factor = black_box(1.000_001_f32);
    for _ in 0..iterations {
        for a in &mut acc {
            *a = a.mul_add(factor, 1e-9);
        }
    }
    acc.iter().sum()
}

/// Wall seconds of one tick: the kernel once on each of `threads` threads at
/// the same time, as a round keeps every worker busy.
fn tick(threads: usize) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(|| black_box(kernel(TICK_ITERATIONS)));
        }
        black_box(kernel(TICK_ITERATIONS));
    });
    start.elapsed().as_secs_f64()
}

/// The host's speed is sampled for this share of the time of the item the
/// sample follows, and for at least `MIN_TICKS` ticks.
const SAMPLED_SHARE: f64 = 0.2;
const MIN_TICKS: usize = 2;

/// How much slower than nominal the host runs right now (1.0 = nominal):
/// the mean of ticks that go on for `seconds` seconds.
fn slowdown(seconds: f64) -> f64 {
    let threads = fedft_tensor::pool::hardware_threads();
    let (mut total, mut ticks) = (0.0, 0);
    while ticks < MIN_TICKS || total < seconds {
        total += tick(threads);
        ticks += 1;
    }
    total / ticks as f64 / NOMINAL_TICK_S
}

/// Times items one after the other, each between two samples of the host's
/// speed.
pub struct Bracketed {
    before: f64,
    /// Wall seconds of each item, as measured.
    pub raw_s: Vec<f64>,
    /// Host slowdown around each item: the mean of the samples on its two
    /// sides.
    pub slowdown: Vec<f64>,
}

impl Bracketed {
    pub fn new() -> Self {
        Bracketed {
            before: slowdown(0.0),
            raw_s: Vec::new(),
            slowdown: Vec::new(),
        }
    }

    /// Runs and times `item`, then samples the host's speed again.
    pub fn time<T>(&mut self, item: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = item();
        let seconds = start.elapsed().as_secs_f64();
        self.record(seconds, slowdown(SAMPLED_SHARE * seconds));
        value
    }

    /// Notes an item that took `seconds` and the slowdown sampled after it.
    fn record(&mut self, seconds: f64, after: f64) {
        self.raw_s.push(seconds);
        self.slowdown.push((self.before + after) / 2.0);
        self.before = after;
    }

    /// Each item's seconds at nominal host speed.
    pub fn nominal_s(&self) -> Vec<f64> {
        self.raw_s
            .iter()
            .zip(&self.slowdown)
            .map(|(s, slow)| s / slow)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_are_divided_by_the_slowdown_around_them() {
        let mut b = Bracketed {
            before: 1.0,
            raw_s: Vec::new(),
            slowdown: Vec::new(),
        };
        b.record(2.0, 1.0);
        b.record(3.0, 2.0);
        b.record(3.0, 1.0);
        assert_eq!(b.slowdown, [1.0, 1.5, 1.5]);
        assert_eq!(b.nominal_s(), [2.0, 2.0, 2.0]);
    }
}
