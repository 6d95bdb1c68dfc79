//! Per-round records and run-level summaries.

use crate::executor::{FlushRecord, FlushTrigger};
use serde::{Deserialize, Serialize};

/// Metrics recorded after every communication round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Round index, starting at 1.
    pub round: usize,
    /// Global-model top-1 accuracy on the held-out test set, in `[0, 1]`.
    pub test_accuracy: f32,
    /// Global-model cross-entropy loss on the test set.
    pub test_loss: f32,
    /// Mean of the participating clients' final-epoch training losses.
    pub mean_train_loss: f32,
    /// Number of clients that participated in the round.
    pub participants: usize,
    /// Number of sampled clients dropped by the scheduler (offline or past
    /// the deadline). Zero for non-scheduling backends.
    pub dropped_clients: usize,
    /// Number of participating clients per device tier (indexed like
    /// [`crate::device::HeterogeneityModel::tiers`]; a single entry under
    /// the default uniform model).
    pub tier_participants: Vec<usize>,
    /// Total number of samples selected for training across participants.
    pub selected_samples: usize,
    /// Per-update staleness, parallel to the aggregated updates: how many
    /// global-model versions each update lagged behind this round. All
    /// zeros under the synchronous backends; bounded by `max_staleness`
    /// under [`crate::ExecutionBackend::Async`].
    pub update_staleness: Vec<usize>,
    /// Simulated client compute seconds spent in this round (summed over
    /// participants), on the nominal device — the paper's learning-
    /// efficiency denominator, under the paper-faithful workload accounting
    /// (frozen prefix recomputed every batch and selection pass).
    pub round_client_seconds: f64,
    /// Cumulative simulated client compute seconds up to and including this
    /// round.
    pub cumulative_client_seconds: f64,
    /// Simulated client compute seconds of this round under the **cached**
    /// workload accounting: frozen-prefix activations served from a feature
    /// cache, so only the trainable suffix runs (steady state). Recorded
    /// unconditionally — it is a deterministic function of the same inputs
    /// as [`RoundRecord::round_client_seconds`], so histories stay
    /// bit-identical whichever way [`crate::FlConfig::feature_cache`] is
    /// set.
    pub round_client_seconds_cached: f64,
    /// Cumulative cached-accounting client seconds up to and including this
    /// round.
    pub cumulative_client_seconds_cached: f64,
    /// Simulated wall-clock duration of this synchronous round: the slowest
    /// surviving client's device-adjusted compute + transfer time, or the
    /// deadline when a sampled client missed it.
    pub round_wall_seconds: f64,
    /// Cumulative simulated wall-clock seconds up to and including this
    /// round.
    pub cumulative_wall_seconds: f64,
    /// Feature-cache lookups served from an existing entry during this
    /// round, summed over the run's cache registries. Zero when
    /// [`crate::FlConfig::feature_cache`] is off. Per-round cache counters
    /// are deltas between consecutive registry snapshots; each snapshot is
    /// read under the registry's one lock (see
    /// [`crate::CacheRegistry::stats`]), so every cache event of the run
    /// lands in exactly one round's record.
    pub cache_hits: usize,
    /// Feature-cache lookups that had to build the activations during this
    /// round.
    pub cache_misses: usize,
    /// Cache entries evicted during this round (byte-budget LRU evictions
    /// plus backbone-change invalidations).
    pub cache_evictions: usize,
    /// Peak bytes held by the run's cache registries up to and including
    /// this round — never exceeds
    /// [`crate::FlConfig::cache_budget_bytes`] when a budget is set.
    pub cache_peak_bytes: usize,
    /// The streaming backend's flush bookkeeping for this round: what fired
    /// the flush, how full the buffer was, and how many updates were carried
    /// over or left pending. `None` under every non-streaming backend.
    pub flush: Option<FlushRecord>,
}

impl RoundRecord {
    /// This record with the cache counters zeroed and the backend's flush
    /// bookkeeping cleared — the **learning-invariant view**: every
    /// remaining field must be bit-identical whichever way
    /// [`crate::FlConfig::feature_cache`] or the byte budget are set (the cache only changes how frozen activations are
    /// obtained, never their values), and across backends that promise
    /// identical learning histories (the degenerate streaming configuration
    /// vs `Sequential` legitimately differ only in this bookkeeping). The
    /// counters themselves legitimately differ (off = all zero, a budget =
    /// more misses), which is why equality contracts compare this view.
    pub(crate) fn without_cache_counters(&self) -> RoundRecord {
        RoundRecord {
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
            cache_peak_bytes: 0,
            flush: None,
            ..self.clone()
        }
    }
}

/// The result of a complete federated-learning run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Human-readable label of the method that produced the run.
    pub label: String,
    /// Per-round history, in order.
    pub rounds: Vec<RoundRecord>,
}

impl RunResult {
    /// Creates a run result from a label and per-round records.
    pub fn new(label: impl Into<String>, rounds: Vec<RoundRecord>) -> Self {
        RunResult {
            label: label.into(),
            rounds,
        }
    }

    /// Test accuracy after the final round; `0.0` for an empty run.
    pub fn final_accuracy(&self) -> f32 {
        self.rounds.last().map_or(0.0, |r| r.test_accuracy)
    }

    /// Best test accuracy reached at any round; `0.0` for an empty run.
    pub fn best_accuracy(&self) -> f32 {
        self.rounds
            .iter()
            .map(|r| r.test_accuracy)
            .fold(0.0, f32::max)
    }

    /// Total simulated client compute seconds over the whole run.
    pub fn total_client_seconds(&self) -> f64 {
        self.rounds
            .last()
            .map_or(0.0, |r| r.cumulative_client_seconds)
    }

    /// Total simulated client compute seconds over the whole run under the
    /// cached workload accounting (see
    /// [`RoundRecord::round_client_seconds_cached`]).
    pub fn total_client_seconds_cached(&self) -> f64 {
        self.rounds
            .last()
            .map_or(0.0, |r| r.cumulative_client_seconds_cached)
    }

    /// Total simulated wall-clock seconds over the whole run (the virtual
    /// time a synchronous server spent waiting for rounds to close).
    pub fn total_wall_seconds(&self) -> f64 {
        self.rounds
            .last()
            .map_or(0.0, |r| r.cumulative_wall_seconds)
    }

    /// Total number of client drops over the whole run (offline devices and
    /// missed deadlines, summed over rounds).
    pub fn total_dropped_clients(&self) -> usize {
        self.rounds.iter().map(|r| r.dropped_clients).sum()
    }

    /// Mean number of participants per round; `0.0` for an empty run.
    pub fn mean_participants(&self) -> f64 {
        if self.rounds.is_empty() {
            return 0.0;
        }
        self.rounds.iter().map(|r| r.participants).sum::<usize>() as f64 / self.rounds.len() as f64
    }

    /// Per-tier participation summed over every round. Ragged records (from
    /// runs with differing tier counts) are aligned by index.
    pub fn tier_participation_totals(&self) -> Vec<usize> {
        let width = self
            .rounds
            .iter()
            .map(|r| r.tier_participants.len())
            .max()
            .unwrap_or(0);
        let mut totals = vec![0usize; width];
        for record in &self.rounds {
            for (slot, &count) in totals.iter_mut().zip(record.tier_participants.iter()) {
                *slot += count;
            }
        }
        totals
    }

    /// Largest staleness of any aggregated update over the whole run.
    /// `0` for synchronous runs; at most `max_staleness` for async runs.
    pub fn max_update_staleness(&self) -> usize {
        self.rounds
            .iter()
            .flat_map(|r| r.update_staleness.iter().copied())
            .max()
            .unwrap_or(0)
    }

    /// Mean staleness over every aggregated update of the run; `0.0` when
    /// no updates were aggregated.
    pub fn mean_update_staleness(&self) -> f64 {
        let mut total = 0usize;
        let mut count = 0usize;
        for record in &self.rounds {
            total += record.update_staleness.iter().sum::<usize>();
            count += record.update_staleness.len();
        }
        if count == 0 {
            return 0.0;
        }
        total as f64 / count as f64
    }

    /// Number of aggregated updates that were stale (staleness > 0) over
    /// the whole run.
    pub fn stale_update_count(&self) -> usize {
        self.rounds
            .iter()
            .flat_map(|r| r.update_staleness.iter())
            .filter(|&&s| s > 0)
            .count()
    }

    /// The paper's learning-efficiency metric: best test accuracy (in
    /// percentage points) divided by the total client training time in
    /// seconds. Returns `0.0` when no time was spent.
    pub fn learning_efficiency(&self) -> f64 {
        let seconds = self.total_client_seconds();
        if seconds <= 0.0 {
            return 0.0;
        }
        f64::from(self.best_accuracy()) * 100.0 / seconds
    }

    /// The learning-efficiency metric under the cached workload accounting:
    /// best test accuracy (percentage points) divided by the cached total
    /// client seconds. Compares against [`RunResult::learning_efficiency`]
    /// to quantify what serving the frozen prefix from a feature cache
    /// would buy on-device. Returns `0.0` when no time was spent.
    pub fn cached_learning_efficiency(&self) -> f64 {
        let seconds = self.total_client_seconds_cached();
        if seconds <= 0.0 {
            return 0.0;
        }
        f64::from(self.best_accuracy()) * 100.0 / seconds
    }

    /// Total feature-cache hits over the whole run.
    pub fn total_cache_hits(&self) -> usize {
        self.rounds.iter().map(|r| r.cache_hits).sum()
    }

    /// Total feature-cache misses (activation builds) over the whole run.
    pub fn total_cache_misses(&self) -> usize {
        self.rounds.iter().map(|r| r.cache_misses).sum()
    }

    /// Total feature-cache evictions over the whole run.
    pub fn total_cache_evictions(&self) -> usize {
        self.rounds.iter().map(|r| r.cache_evictions).sum()
    }

    /// Peak bytes the run's feature caches ever held (the per-round peak is
    /// monotone, so this is the final round's value).
    pub fn peak_cache_bytes(&self) -> usize {
        self.rounds
            .iter()
            .map(|r| r.cache_peak_bytes)
            .max()
            .unwrap_or(0)
    }

    /// The per-round history with the `cache_*` counters of every
    /// [`RoundRecord`] zeroed: the view that must be
    /// **bit-identical** across cache off/on and any byte budget — the comparison `tests/feature_cache_e2e.rs` and
    /// `tests/logical_pool_e2e.rs` pin.
    pub fn learning_history(&self) -> Vec<RoundRecord> {
        self.rounds
            .iter()
            .map(RoundRecord::without_cache_counters)
            .collect()
    }

    /// A 64-bit FNV-1a digest of the learning history, one number that pins
    /// a whole run (`tests/golden_histories.rs`): the bit patterns of the
    /// fields the benchmark harness's `history_checksum` reads, in its
    /// order, each as one little-endian `u64`. What
    /// [`RunResult::learning_history`] zeroes is left out.
    pub fn history_digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut write = |word: u64| {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for r in &self.rounds {
            write(r.round as u64);
            write(u64::from(r.test_accuracy.to_bits()));
            write(u64::from(r.test_loss.to_bits()));
            write(u64::from(r.mean_train_loss.to_bits()));
            write(r.participants as u64);
            write(r.dropped_clients as u64);
            for &t in &r.tier_participants {
                write(t as u64);
            }
            write(r.selected_samples as u64);
            for &s in &r.update_staleness {
                write(s as u64);
            }
            write(r.round_client_seconds.to_bits());
            write(r.round_client_seconds_cached.to_bits());
            write(r.round_wall_seconds.to_bits());
        }
        hash
    }

    /// Number of rounds that recorded a buffer flush (every round of a
    /// streaming run; zero otherwise).
    pub fn flush_count(&self) -> usize {
        self.rounds.iter().filter(|r| r.flush.is_some()).count()
    }

    /// Number of flushes fired by the given trigger over the whole run.
    pub fn flush_count_for(&self, trigger: FlushTrigger) -> usize {
        self.rounds
            .iter()
            .filter(|r| r.flush.as_ref().is_some_and(|f| f.trigger == trigger))
            .count()
    }

    /// Total updates aggregated from a flush that were carried over from an
    /// earlier round's dispatch (FedBuff carryover) over the whole run.
    pub fn total_carried_updates(&self) -> usize {
        self.rounds
            .iter()
            .filter_map(|r| r.flush.as_ref().map(|f| f.carried))
            .sum()
    }

    /// Total updates aggregated over the whole run (the streaming
    /// throughput numerator: divide by elapsed time for sustained
    /// updates/sec).
    pub fn total_aggregated_updates(&self) -> usize {
        self.rounds.iter().map(|r| r.participants).sum()
    }

    /// The test-accuracy learning curve, one entry per round.
    pub fn accuracy_curve(&self) -> Vec<f32> {
        self.rounds.iter().map(|r| r.test_accuracy).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(round: usize, acc: f32, cumulative: f64) -> RoundRecord {
        RoundRecord {
            round,
            test_accuracy: acc,
            test_loss: 1.0 - acc,
            mean_train_loss: 0.5,
            participants: 10,
            dropped_clients: 2,
            tier_participants: vec![7, 3],
            selected_samples: 100,
            update_staleness: vec![0, 1, 2, 0, 0, 0, 0, 0, 0, 0],
            round_client_seconds: 1.0,
            cumulative_client_seconds: cumulative,
            round_client_seconds_cached: 0.5,
            cumulative_client_seconds_cached: cumulative / 2.0,
            round_wall_seconds: 5.0,
            cumulative_wall_seconds: 5.0 * round as f64,
            cache_hits: 8,
            cache_misses: 2,
            cache_evictions: 1,
            cache_peak_bytes: 4096 * round,
            flush: None,
        }
    }

    fn run() -> RunResult {
        RunResult::new(
            "demo",
            vec![
                record(1, 0.2, 10.0),
                record(2, 0.6, 20.0),
                record(3, 0.5, 30.0),
            ],
        )
    }

    #[test]
    fn summary_accessors() {
        let r = run();
        assert_eq!(r.final_accuracy(), 0.5);
        assert_eq!(r.best_accuracy(), 0.6);
        assert_eq!(r.total_client_seconds(), 30.0);
        assert_eq!(r.accuracy_curve(), vec![0.2, 0.6, 0.5]);
        assert_eq!(r.label, "demo");
    }

    #[test]
    fn learning_efficiency_uses_best_accuracy_and_total_time() {
        let r = run();
        // 60 accuracy points over 30 seconds.
        assert!((r.learning_efficiency() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn cached_accounting_has_its_own_totals_and_efficiency() {
        let r = run();
        assert_eq!(r.total_client_seconds_cached(), 15.0);
        // 60 accuracy points over 15 cached seconds.
        assert!((r.cached_learning_efficiency() - 4.0).abs() < 1e-6);
        assert!(r.cached_learning_efficiency() > r.learning_efficiency());
        let empty = RunResult::new("empty", vec![]);
        assert_eq!(empty.total_client_seconds_cached(), 0.0);
        assert_eq!(empty.cached_learning_efficiency(), 0.0);
    }

    #[test]
    fn empty_run_is_safe() {
        let r = RunResult::new("empty", vec![]);
        assert_eq!(r.final_accuracy(), 0.0);
        assert_eq!(r.best_accuracy(), 0.0);
        assert_eq!(r.learning_efficiency(), 0.0);
        assert_eq!(r.total_wall_seconds(), 0.0);
        assert_eq!(r.total_dropped_clients(), 0);
        assert_eq!(r.mean_participants(), 0.0);
        assert!(r.tier_participation_totals().is_empty());
    }

    #[test]
    fn straggler_summaries_aggregate_rounds() {
        let r = run();
        assert_eq!(r.total_dropped_clients(), 6);
        assert!((r.mean_participants() - 10.0).abs() < 1e-12);
        assert_eq!(r.tier_participation_totals(), vec![21, 9]);
        assert_eq!(r.total_wall_seconds(), 15.0);
    }

    #[test]
    fn staleness_summaries_aggregate_rounds() {
        let r = run();
        // Each round records staleness [0,1,2,0,...]: max 2, 2 stale of 10.
        assert_eq!(r.max_update_staleness(), 2);
        assert_eq!(r.stale_update_count(), 6);
        assert!((r.mean_update_staleness() - 0.3).abs() < 1e-12);
        let empty = RunResult::new("empty", vec![]);
        assert_eq!(empty.max_update_staleness(), 0);
        assert_eq!(empty.stale_update_count(), 0);
        assert_eq!(empty.mean_update_staleness(), 0.0);
    }

    #[test]
    fn cache_counters_aggregate_and_vanish_from_the_learning_history() {
        let r = run();
        assert_eq!(r.total_cache_hits(), 24);
        assert_eq!(r.total_cache_misses(), 6);
        assert_eq!(r.total_cache_evictions(), 3);
        assert_eq!(r.peak_cache_bytes(), 4096 * 3, "peak is the running max");

        // The learning history zeroes exactly the cache counters and keeps
        // everything else bit-for-bit.
        let history = r.learning_history();
        assert_eq!(history.len(), r.rounds.len());
        for (bare, full) in history.iter().zip(&r.rounds) {
            assert_eq!(bare.cache_hits, 0);
            assert_eq!(bare.cache_misses, 0);
            assert_eq!(bare.cache_evictions, 0);
            assert_eq!(bare.cache_peak_bytes, 0);
            assert_eq!(bare.test_accuracy, full.test_accuracy);
            assert_eq!(bare.round_client_seconds, full.round_client_seconds);
            assert_eq!(bare.update_staleness, full.update_staleness);
        }
        // Two runs differing only in cache counters share a history.
        let mut other = r.clone();
        other.rounds[1].cache_hits = 0;
        other.rounds[1].cache_peak_bytes = 1;
        assert_ne!(other.rounds, r.rounds);
        assert_eq!(other.learning_history(), r.learning_history());

        let empty = RunResult::new("empty", vec![]);
        assert_eq!(empty.total_cache_hits(), 0);
        assert_eq!(empty.peak_cache_bytes(), 0);
        assert!(empty.learning_history().is_empty());
    }

    #[test]
    fn flush_summaries_aggregate_and_vanish_from_the_learning_history() {
        let mut r = run();
        assert_eq!(r.flush_count(), 0);
        assert_eq!(r.total_carried_updates(), 0);
        assert_eq!(r.total_aggregated_updates(), 30);
        r.rounds[0].flush = Some(FlushRecord {
            trigger: FlushTrigger::BufferFull,
            buffer_fill: 12,
            carried: 0,
            arrivals: 12,
            remaining: 2,
        });
        r.rounds[1].flush = Some(FlushRecord {
            trigger: FlushTrigger::Timeout,
            buffer_fill: 14,
            carried: 2,
            arrivals: 12,
            remaining: 4,
        });
        assert_eq!(r.flush_count(), 2);
        assert_eq!(r.flush_count_for(FlushTrigger::BufferFull), 1);
        assert_eq!(r.flush_count_for(FlushTrigger::Timeout), 1);
        assert_eq!(r.flush_count_for(FlushTrigger::Drain), 0);
        assert_eq!(r.total_carried_updates(), 2);
        // The learning history clears the flush bookkeeping, so streaming
        // and sequential runs of the same learning process compare equal.
        assert!(r.learning_history().iter().all(|rec| rec.flush.is_none()));
        assert_eq!(r.learning_history(), run().learning_history());
    }

    #[test]
    fn history_digest_sees_every_learning_field_and_nothing_else() {
        // No rounds: the FNV-1a offset basis.
        assert_eq!(
            RunResult::new("empty", vec![]).history_digest(),
            0xcbf2_9ce4_8422_2325
        );
        let reference = run().history_digest();
        assert_eq!(reference, run().history_digest());
        let moved = |edit: fn(&mut RoundRecord)| {
            let mut r = run();
            edit(&mut r.rounds[1]);
            r.history_digest()
        };
        assert_ne!(
            reference,
            moved(|r| r.test_loss = f32::from_bits(r.test_loss.to_bits() + 1))
        );
        assert_ne!(reference, moved(|r| r.update_staleness[1] = 2));
        assert_ne!(reference, moved(|r| r.round_wall_seconds = 5.5));
        // What the learning history zeroes, and the running totals, are
        // not part of the digest.
        assert_eq!(reference, moved(|r| r.cache_hits = 9));
        assert_eq!(reference, moved(|r| r.cumulative_client_seconds = 0.0));
        let mut streamed = run();
        streamed.rounds[0].flush = Some(FlushRecord {
            trigger: FlushTrigger::Drain,
            buffer_fill: 10,
            carried: 0,
            arrivals: 10,
            remaining: 0,
        });
        assert_eq!(reference, streamed.history_digest());
        let bare = RunResult::new("bare", run().learning_history());
        assert_eq!(reference, bare.history_digest());
    }

    #[test]
    fn results_are_serializable_and_cloneable() {
        // serde_json is unavailable in the offline build; assert the API
        // commitment (Serialize/Deserialize bounds) and a clone round-trip.
        fn assert_serialize<T: serde::Serialize + for<'de> serde::Deserialize<'de>>() {}
        assert_serialize::<RunResult>();
        assert_serialize::<RoundRecord>();
        let r = run();
        assert_eq!(r.clone(), r);
    }
}
