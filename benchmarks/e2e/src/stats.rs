//! Order statistics over small samples and the history checksum.

use fedft_core::RoundRecord;

/// Median, quartiles and range of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let sorted = sorted(samples);
        Some(Summary {
            n: sorted.len(),
            min: *sorted.first()?,
            q1: percentile_sorted(&sorted, 0.25),
            median: percentile_sorted(&sorted, 0.5),
            q3: percentile_sorted(&sorted, 0.75),
            max: *sorted.last()?,
        })
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) with linear interpolation between the two
/// nearest ranks; `0.0` for an empty sample, which is how a metric that does
/// not apply to a workload is reported.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(samples), p)
}

/// The median; `0.0` for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let rank = p.clamp(0.0, 1.0) * last as f64;
    let below = rank.floor() as usize;
    let above = rank.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (rank - below as f64)
}

/// 64-bit FNV-1a over a stream of 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds one word as its eight little-endian bytes.
    pub fn write(&mut self, word: u64) {
        self.write_bytes(&word.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a over the bit patterns of a learning history: every field of every
/// round that `RunResult::learning_history` keeps (cache counters are zeroed
/// there, so they are left out here).
pub fn history_checksum(history: &[RoundRecord]) -> u64 {
    let mut h = Fnv1a::new();
    for r in history {
        h.write(r.round as u64);
        h.write(u64::from(r.test_accuracy.to_bits()));
        h.write(u64::from(r.test_loss.to_bits()));
        h.write(u64::from(r.mean_train_loss.to_bits()));
        h.write(r.participants as u64);
        h.write(r.dropped_clients as u64);
        for &t in &r.tier_participants {
            h.write(t as u64);
        }
        h.write(r.selected_samples as u64);
        for &s in &r.update_staleness {
            h.write(s as u64);
        }
        h.write(r.round_client_seconds.to_bits());
        h.write(r.round_client_seconds_cached.to_bits());
        h.write(r.round_wall_seconds.to_bits());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((s.n, s.min, s.max), (4, 1.0, 4.0));
        assert_eq!((s.q1, s.median, s.q3), (1.75, 2.5, 3.25));
        assert_eq!(s.spread(), 0.6);
        let odd = Summary::of(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!((odd.q1, odd.median, odd.q3), (2.0, 3.0, 4.0));
        let one = Summary::of(&[7.0]).unwrap();
        assert_eq!(
            (one.q1, one.median, one.q3, one.spread()),
            (7.0, 7.0, 7.0, 0.0)
        );
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn percentile_handles_ends_and_empty() {
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 0.9), 10.0);
        assert_eq!(percentile(&xs, 1.0), 11.0);
        assert_eq!(percentile(&xs, 7.0), 11.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        let hash = |bytes: &[u8]| {
            let mut h = Fnv1a::new();
            h.write_bytes(bytes);
            h.finish()
        };
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x8594_4171_f739_67e8);
        let mut words = Fnv1a::new();
        words.write(u64::from_le_bytes(*b"foobar\0\0"));
        assert_eq!(words.finish(), hash(b"foobar\0\0"));
    }

    #[test]
    fn history_checksum_sees_every_learning_field() {
        let base = RoundRecord {
            round: 1,
            test_accuracy: 0.5,
            test_loss: 1.0,
            mean_train_loss: 0.7,
            participants: 3,
            dropped_clients: 1,
            tier_participants: vec![2, 1],
            selected_samples: 40,
            update_staleness: vec![0, 1, 0],
            round_client_seconds: 1.5,
            cumulative_client_seconds: 1.5,
            round_client_seconds_cached: 0.5,
            cumulative_client_seconds_cached: 0.5,
            round_wall_seconds: 2.0,
            cumulative_wall_seconds: 2.0,
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
            cache_peak_bytes: 0,
            flush: None,
        };
        let reference = history_checksum(std::slice::from_ref(&base));
        assert_eq!(reference, history_checksum(std::slice::from_ref(&base)));
        let mut changed = base.clone();
        changed.test_loss = f32::from_bits(base.test_loss.to_bits() + 1);
        assert_ne!(reference, history_checksum(&[changed]));
        let mut changed = base.clone();
        changed.update_staleness[1] = 2;
        assert_ne!(reference, history_checksum(&[changed]));
        // Cache counters are not part of the learning history.
        let mut cached = base.clone();
        cached.cache_hits = 9;
        assert_eq!(reference, history_checksum(&[cached]));
    }
}
