//! Shard-deduplicated caching of frozen-prefix boundary activations, and of
//! the selection scores computed from them.
//!
//! A client's local dataset never changes, and the frozen backbone `ϕ` never
//! changes during a federated run (the server only aggregates the trainable
//! part `θ`). The boundary activations `ϕ(x)` of the client's local data are
//! therefore **round-invariant**, yet the uncached simulator recomputes them
//! for every batch of every epoch of every round — plus once more for the
//! entropy-selection pass. PR 4 memoised them per client; PR 5 went one step
//! further for *logical client pools* (N simulated clients over M ≪ N
//! physical shards): a [`CacheRegistry`] keyed by
//! `(source_checksum, frozen_fingerprint, freeze_level)` lets every logical
//! client that holds the same shard share one `Arc<Matrix>` of activations,
//! so cache memory scales with **distinct shards**, not with clients.
//!
//! A registry is one mutex over its whole state: the entry table, the LRU
//! clock, the counters, the byte ledger and the score tier. A lookup holds
//! it for a short table scan and never across a build, and a pooled round
//! hands all clients of one shard to one runner, so the lock is short and
//! rarely contended.
//!
//! # Invariants
//!
//! * **Keying / aliasing guard.** Entries are keyed by
//!   [`fedft_nn::BlockNet::frozen_fingerprint`], a hash over the frozen
//!   parameter bits, so a cache can never serve activations computed under a
//!   *different* backbone, and by a strided-row checksum of the source
//!   features guarding against two *different* shards aliasing one entry
//!   (exact for data shards up to 16 rows, sampled beyond — see
//!   `source_checksum` in this module for the precise guarantee).
//! * **Backbone invalidation.** Inserting an entry drops every entry of the
//!   same `(source_checksum, freeze_level)` under another fingerprint: those
//!   activations can never be asked for again.
//! * **Evict-before-insert.** With a byte budget
//!   ([`crate::FlConfig::cache_budget_bytes`]) the registry evicts its
//!   least-recently-used entries *before* inserting, so
//!   [`CacheStats::peak_bytes`] never exceeds the budget. An entry larger
//!   than the whole budget is built and served but never retained.
//! * **Bit-identity.** Cached rows are produced by the same kernels on the
//!   same inputs as the uncached per-batch forward (and every kernel
//!   accumulates in a row-partition-invariant order), so training from
//!   cached rows is bit-identical to recomputing them — the contract
//!   `tests/feature_cache_e2e.rs` and `tests/logical_pool_e2e.rs` pin end to
//!   end. Eviction only ever forces a rebuild, never a different value, so
//!   **budgets cannot change results**.
//! * **Coherent statistics.** Every counter and ledger is mutated under the
//!   registry's lock, and [`CacheRegistry::stats`] reads them all under one
//!   guard, so the difference between two snapshots of a live registry
//!   counts every event exactly once. This is the guarantee the
//!   per-round delta capture in [`crate::Simulation`]'s executor loop (the
//!   `cache_hits`/`cache_misses`/… fields of [`crate::RoundRecord`]) relies
//!   on. Under sequential execution the counters are exactly deterministic;
//!   under concurrent execution only same-key build races can wobble the
//!   totals (documented on [`CacheRegistry::get_or_build`]), never the
//!   results.
//!
//! # The score tier
//!
//! A selection score (entropy, loss, gradient norm) is a function of the
//! model, the shard and the score's kind — no client id, no round, no RNG
//! stream — so the logical clients of one shard that train on one model
//! version in one round all need the same scores. Beside (not inside) its
//! entry table the registry therefore holds a second, tiny tier: per
//! `(shard key, freeze level)` one [`ScoreSlot`] with the **latest** scores
//! computed there, valid for one `(parameter stamp, score kind)`.
//!
//! * **Keying.** The model side is [`fedft_nn::BlockNet::parameter_stamp`]:
//!   a process-unique number the two parameter writers re-draw and a clone
//!   carries, so equal stamps imply equal parameters — `ϕ` and `θ` — and
//!   nothing `θ`-sized is hashed. A stale version of an event round is a
//!   `θ` snapshot on the live backbone, no model of its own: it keeps the
//!   stamp the global model had when the event clock took the snapshot, so
//!   its clients share its scores with each other and with the round that
//!   trained on it live, and it replaces the slot of whichever version
//!   scored there before. The data
//!   side is [`ShardKey`]: the feature checksum of the entry table extended
//!   over **every label**, because loss and gradient-norm scores read them
//!   (shards equal in features and different in labels share a boundary and
//!   never a score). The feature half inherits `source_checksum`'s sampling:
//!   exact up to 16 rows, strided beyond. The kind carries the entropy
//!   temperature's bits.
//! * **Memory.** One slot per `(shard, freeze level)` ever scored, 4 bytes
//!   per training row, **outside** the registry's byte budget, every
//!   [`CacheStats`] ledger and the LRU clock: it is never evicted, only
//!   overwritten or [`CacheRegistry::clear`]ed (9.6 KB beside a 460,800-byte
//!   budget on the `logical_pool` benchmark workload). A slot outlives the
//!   update that filled it, so it is not allocated per update: a put
//!   overwrites the slot's buffer in place and a reader copies out, under the
//!   registry's lock, into a buffer its thread keeps
//!   ([`crate::ClientWorkspace`]).
//! * **Bit-identity.** A served score is the stored output of the one
//!   scoring path ([`crate::SelectionContext`] consults the slot before
//!   running the suffix and fills it after), so memo on ≡ memo off is the
//!   shared ≡ private-registry ≡ cache-off contract `tests/logical_pool_e2e.rs`
//!   already pins. Two clients of one shard may both find the slot behind
//!   and both compute only when no one runner orders them: across the units
//!   of a shard a pooled executor cut in two, or across separate executors
//!   sharing the registry. They store equal bits.
//! * **Counters.** [`CacheRegistry::score_stats`] (`served` / `computed`),
//!   separate from [`CacheStats`]. A synchronous round computes exactly
//!   once per distinct `(shard, freeze level)` it trains, pooled or not, as
//!   long as no such pair is cut across units: a pooled executor hands the
//!   clients of one pair to one runner, up to ⌈jobs / (2·workers)⌉ of them
//!   ([`crate::Executor`]). An event round training one shard on two model
//!   versions may recompute, as the slot keeps only the latest.

use crate::{FlError, Result};
use fedft_data::Dataset;
use fedft_nn::{BlockNet, FreezeLevel};
use fedft_tensor::{stats, Matrix};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex, MutexGuard};

/// Identity of one cached activation matrix: which data, under which frozen
/// prefix, split at which level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CacheKey {
    source_checksum: u64,
    fingerprint: u64,
    freeze: FreezeLevel,
}

/// One cached set of boundary activations.
#[derive(Debug)]
struct CacheEntry {
    key: CacheKey,
    features: Arc<Matrix>,
    bytes: usize,
    last_used: u64,
}

/// A cheap checksum of the source feature matrix a cache entry was built
/// from: shape plus an FNV-1a over a deterministic strided sample of rows
/// (every ⌈rows/16⌉-th row, always including the first and last). A shard's
/// contents never change, so this never misses in the intended use; it
/// guards **different** shards sharing a registry from aliasing one entry —
/// which would silently serve activations of the wrong data. Hashing only
/// the first and last rows (the previous scheme) collided for shards that
/// differ in interior rows only; the strided sample catches *any* single-row
/// difference for shards up to 16 rows and keeps the cost at `O(16·cols)`
/// beyond. The guard is sampled, not exhaustive, past 16 rows: two
/// same-shape shards that agree on every sampled row but differ at an
/// unsampled one would still collide. That requires ≥ 17 bit-identical
/// sampled rows between two shards of one run — partitions assign each
/// sample to exactly one shard, so in practice this means duplicated
/// samples landing row-aligned across shards; hash all rows here if a data
/// source ever makes that plausible.
fn source_checksum(features: &Matrix) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut mix = |value: u64| {
        hash ^= value;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix(features.rows() as u64);
    mix(features.cols() as u64);
    let rows = features.rows();
    if rows > 0 {
        let stride = rows.div_ceil(16);
        let mut row = 0;
        while row < rows {
            mix(row as u64);
            for &v in features.row(row) {
                mix(u64::from(v.to_bits()));
            }
            row += stride;
        }
        if !(rows - 1).is_multiple_of(stride) {
            mix((rows - 1) as u64);
            for &v in features.row(rows - 1) {
                mix(u64::from(v.to_bits()));
            }
        }
    }
    hash
}

/// What a registry calls one data shard, derived once per shard instead of
/// on every lookup ([`crate::ClientPool`] derives it once per *physical*
/// shard and hands it to every logical client of it).
///
/// It holds the two data-side keys of the registry's two tiers. Boundary
/// activations are a function of the features alone, so their key is the
/// feature checksum [`CacheRegistry::get_or_build`] computes — shards with
/// equal features keep sharing one boundary whatever their labels. Selection
/// scores may read the labels (loss, gradient norm), so the score tier's key
/// extends that checksum over every label and the class count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ShardKey {
    features: u64,
    labelled: u64,
}

impl ShardKey {
    /// The key of `shard` as it is now; a shard never changes once clients
    /// hold it.
    pub fn of(shard: &Dataset) -> Self {
        let features = source_checksum(shard.features());
        // The same FNV-1a step, continued over the class count and labels.
        let labelled = std::iter::once(shard.num_classes())
            .chain(shard.labels().iter().copied())
            .fold(features, |hash, value| {
                (hash ^ value as u64).wrapping_mul(0x0000_0100_0000_01b3)
            });
        ShardKey { features, labelled }
    }
}

/// Which per-sample selection score a slot of the score tier holds: the
/// function applied to the logits ([`ScoreKind::score`]), with every
/// parameter it has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoreKind {
    /// Entropy under a softmax at the temperature with these bits
    /// ([`ScoreKind::entropy`]).
    Entropy {
        /// `f32::to_bits` of the temperature.
        temperature_bits: u32,
    },
    /// Cross-entropy loss against the shard's labels.
    Loss,
    /// Output-layer gradient norm against the shard's labels.
    GradientNorm,
}

impl ScoreKind {
    /// Entropy scores at `temperature`; two temperatures are the same kind
    /// only when they are the same bits.
    pub fn entropy(temperature: f32) -> Self {
        ScoreKind::Entropy {
            temperature_bits: temperature.to_bits(),
        }
    }

    /// The score of every row of `logits`, the suffix's output on a shard's
    /// boundary activations, whose labels are `labels`:
    ///
    /// * `Entropy` — the Shannon entropy of the softmax at the kind's
    ///   temperature (paper Equations 3 and 6), fused into one pass a row by
    ///   [`stats::softmax_entropy_rows`] with no probability matrix; `labels`
    ///   is not read.
    /// * `Loss` — the cross-entropy `−ln max(p_y, f32::MIN_POSITIVE)` under
    ///   the softmax at temperature 1.
    /// * `GradientNorm` — the output-layer gradient norm
    ///   `‖p − onehot(y)‖₂ = sqrt(max(0, Σ_j p_j² − 2·p_y + 1))`: the exact
    ///   norm of the cross-entropy gradient with respect to the logits, a
    ///   proxy for the per-sample gradient that needs no backward pass.
    ///
    /// # Errors
    ///
    /// Returns an error for empty logits or a temperature that is not
    /// positive and finite, and, for the kinds that read labels, a label
    /// count that is not the row count or a label out of range.
    pub fn score(&self, logits: &Matrix, labels: &[usize]) -> Result<Vec<f32>> {
        match *self {
            ScoreKind::Entropy { temperature_bits } => Ok(stats::softmax_entropy_rows(
                logits,
                f32::from_bits(temperature_bits),
            )?),
            ScoreKind::Loss => {
                labelled_rows(logits, labels, |p, y| -p[y].max(f32::MIN_POSITIVE).ln())
            }
            ScoreKind::GradientNorm => labelled_rows(logits, labels, |p, y| {
                let sum_sq: f32 = p.iter().map(|&v| v * v).sum();
                (sum_sq - 2.0 * p[y] + 1.0).max(0.0).sqrt()
            }),
        }
    }
}

/// `score` of every row's temperature-1 softmax and label, after checking
/// that there is one label a row and each names a class.
fn labelled_rows(
    logits: &Matrix,
    labels: &[usize],
    score: impl Fn(&[f32], usize) -> f32,
) -> Result<Vec<f32>> {
    let (rows, classes) = logits.shape();
    if labels.len() != rows || labels.iter().any(|&y| y >= classes) {
        return Err(FlError::InvalidConfig {
            what: format!(
                "{} labels do not fit {rows} rows of {classes} classes",
                labels.len()
            ),
        });
    }
    let proba = stats::softmax(logits)?;
    Ok(labels
        .iter()
        .enumerate()
        .map(|(row, &y)| score(proba.row(row), y))
        .collect())
}

/// The latest scores computed for one `(shard, freeze level)`.
#[derive(Debug)]
struct ScoreEntry {
    shard: u64,
    freeze: FreezeLevel,
    /// What `scores` is valid for: one model version, one kind.
    stamp: u64,
    kind: ScoreKind,
    scores: Vec<f32>,
}

/// Counters of a registry's score tier ([`CacheRegistry::score_stats`]).
/// Within one executor's synchronous rounds they are exact on every
/// backend while no shard is cut across hand-out units; the units of one
/// that is, or clients of separate executors sharing the registry, may both
/// find the slot behind and both compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScoreStats {
    /// Scoring passes a slot answered.
    pub served: usize,
    /// Scoring passes that ran and were left in a slot.
    pub computed: usize,
    /// Slots held — distinct `(shard, freeze level)` pairs scored so far,
    /// 4 bytes per row of the shard each, outside any byte budget.
    pub slots: usize,
}

/// A client's handle onto the one slot of the score tier that can hold the
/// scores of its shard at its freeze level, for the model version it was
/// made for ([`CacheRegistry::score_slot`]).
#[derive(Debug, Clone, Copy)]
pub struct ScoreSlot<'a> {
    registry: &'a CacheRegistry,
    key: u64,
    freeze: FreezeLevel,
    stamp: u64,
}

impl ScoreSlot<'_> {
    /// Copies the slot's scores into `out` (previous contents discarded) and
    /// returns `true` when they are `kind` scores of this handle's model
    /// version; otherwise leaves `out` alone and returns `false`.
    pub fn read_into(&self, kind: ScoreKind, out: &mut Vec<f32>) -> bool {
        let mut inner = self.registry.lock();
        let Some(entry) = inner
            .scores
            .iter()
            .find(|e| self.owns(e) && e.stamp == self.stamp && e.kind == kind)
        else {
            return false;
        };
        out.clear();
        out.extend_from_slice(&entry.scores);
        inner.scores_served += 1;
        true
    }

    /// Leaves `scores` in the slot as the `kind` scores of this handle's
    /// model version, replacing whatever version or kind it held — in place:
    /// only a slot's first scores, or longer ones, allocate.
    pub fn store(&self, kind: ScoreKind, scores: &[f32]) {
        let mut inner = self.registry.lock();
        inner.scores_computed += 1;
        match inner.scores.iter_mut().find(|e| self.owns(e)) {
            Some(entry) => {
                entry.stamp = self.stamp;
                entry.kind = kind;
                entry.scores.clear();
                entry.scores.extend_from_slice(scores);
            }
            None => inner.scores.push(ScoreEntry {
                shard: self.key,
                freeze: self.freeze,
                stamp: self.stamp,
                kind,
                scores: scores.to_vec(),
            }),
        }
    }

    fn owns(&self, entry: &ScoreEntry) -> bool {
        entry.shard == self.key && entry.freeze == self.freeze
    }
}

fn matrix_bytes(m: &Matrix) -> usize {
    m.rows() * m.cols() * std::mem::size_of::<f32>()
}

/// Counters of a [`CacheRegistry`] (or a sum over several registries).
///
/// `hits`, `misses` and `evictions` are monotone over a registry's lifetime;
/// `entries`/`current_bytes` describe the present content and `peak_bytes`
/// the largest `current_bytes` ever reached — the number a byte budget
/// bounds.
///
/// Differencing two snapshots of the same registry isolates the activity in
/// between: that is how the per-round cache counters on
/// [`crate::RoundRecord`] are produced.
///
/// # Examples
///
/// A backbone change invalidates the entry built under the old one: the
/// counters keep counting, the content figures describe what is held now.
///
/// ```
/// use fedft_core::CacheRegistry;
/// use fedft_nn::{BlockNet, BlockNetConfig, FreezeLevel};
/// use fedft_tensor::Matrix;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = BlockNetConfig::new(4, 3).with_hidden(4, 4, 4);
/// let shard = Matrix::from_vec(2, 4, vec![0.5; 8])?;
/// let registry = CacheRegistry::new();
/// registry.get_or_build(&BlockNet::new(&config, 1), FreezeLevel::Moderate, &shard)?;
/// registry.get_or_build(&BlockNet::new(&config, 2), FreezeLevel::Moderate, &shard)?;
///
/// let stats = registry.stats();
/// assert_eq!((stats.hits, stats.misses, stats.evictions), (0, 2, 1));
/// assert_eq!(stats.entries, 1);
/// assert_eq!(stats.current_bytes, 2 * 4 * 4, "two rows of four f32 boundary values");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups served from an existing entry.
    pub hits: usize,
    /// Lookups that had to build (and possibly store) the activations.
    pub misses: usize,
    /// Entries removed to satisfy the byte budget or invalidated by a
    /// backbone change.
    pub evictions: usize,
    /// Entries currently held.
    pub entries: usize,
    /// Bytes currently held across all entries.
    pub current_bytes: usize,
    /// Largest `current_bytes` ever reached. Never exceeds the budget of a
    /// budgeted registry.
    pub peak_bytes: usize,
}

impl CacheStats {
    /// The activity between `earlier` (a previous snapshot of the same
    /// registry) and `self`: monotone counters are differenced, content
    /// figures (`entries`, `current_bytes`, `peak_bytes`) are taken from
    /// `self`.
    ///
    /// Each snapshot being read under the registry's lock, the delta counts
    /// every hit/miss/eviction between them exactly once — even on a
    /// registry that other threads keep mutating.
    pub(crate) fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            entries: self.entries,
            current_bytes: self.current_bytes,
            peak_bytes: self.peak_bytes,
        }
    }
}

/// A registry's state, all of it behind the registry's one mutex.
#[derive(Debug, Default)]
struct Inner {
    entries: Vec<CacheEntry>,
    budget_bytes: Option<usize>,
    /// The LRU clock.
    tick: u64,
    hits: usize,
    misses: usize,
    evictions: usize,
    current_bytes: usize,
    peak_bytes: usize,
    /// The score tier: beside the entry table, in none of the ledgers above.
    scores: Vec<ScoreEntry>,
    scores_served: usize,
    scores_computed: usize,
}

impl Inner {
    fn remove_at(&mut self, index: usize) {
        let removed = self.entries.swap_remove(index);
        self.current_bytes -= removed.bytes;
        self.evictions += 1;
    }

    /// The entry under `key`, stamped as used at a new tick.
    fn touch(&mut self, key: &CacheKey) -> Option<Arc<Matrix>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.iter_mut().find(|e| e.key == *key).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.features)
        })
    }
}

/// A process-wide, thread-safe registry of frozen-prefix boundary
/// activations, shared by every client handed a clone of it.
///
/// Entries are keyed by `(source_checksum, frozen_fingerprint, freeze)`:
/// any number of logical clients holding the same data shard under the same
/// backbone resolve to the **same** `Arc<Matrix>`, so memory scales with
/// distinct shards rather than with clients (see the module docs for the
/// full invariant list). An optional byte budget is enforced by
/// least-recently-used eviction *before* insertion, so
/// [`CacheStats::peak_bytes`] never exceeds the budget; an entry larger than
/// the budget is built and served but never retained. Cloning a
/// `CacheRegistry` shares the underlying storage and counters.
///
/// # Examples
///
/// Two handles onto one registry deduplicate identical data shards — one
/// build, then hits, one shared allocation:
///
/// ```
/// use fedft_core::CacheRegistry;
/// use fedft_nn::{BlockNet, BlockNetConfig, FreezeLevel};
/// use fedft_tensor::Matrix;
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = BlockNet::new(&BlockNetConfig::new(4, 3).with_hidden(4, 4, 4), 1);
/// let shard = Matrix::from_vec(2, 4, vec![0.5; 8])?;
///
/// let registry = CacheRegistry::new(); // unbounded
/// let a = registry.get_or_build(&model, FreezeLevel::Moderate, &shard)?;
/// let b = registry.clone().get_or_build(&model, FreezeLevel::Moderate, &shard)?;
/// assert!(Arc::ptr_eq(&a, &b), "one entry, shared by every handle");
///
/// let stats = registry.stats();
/// assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct CacheRegistry {
    inner: Arc<Mutex<Inner>>,
}

impl CacheRegistry {
    /// Creates an empty, unbounded registry.
    pub fn new() -> Self {
        CacheRegistry::default()
    }

    /// Creates an empty registry under an optional byte budget, enforced by
    /// evict-before-insert LRU.
    pub(crate) fn with_budget(budget_bytes: Option<usize>) -> Self {
        CacheRegistry {
            inner: Arc::new(Mutex::new(Inner {
                budget_bytes,
                ..Inner::default()
            })),
        }
    }

    /// Returns the cached boundary activations of `features` under
    /// `model`'s frozen prefix at `freeze`, computing them on a miss and
    /// storing them unless that would overflow the byte budget.
    ///
    /// The frozen forward pass runs **outside** the registry's lock — the
    /// build is the dominant cost, and holding the lock across it would
    /// serialize builds on the parallel executors. The price is that two
    /// threads racing on the *same* key may both build (both count as
    /// misses); the insert path re-checks and keeps the first entry, so they
    /// still return one shared allocation and the values are identical
    /// either way. Counters are exactly deterministic under the sequential
    /// executor; under parallel execution only the totals may wobble by such
    /// races, never the results.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the frozen forward pass.
    pub fn get_or_build(
        &self,
        model: &BlockNet,
        freeze: FreezeLevel,
        features: &Matrix,
    ) -> Result<Arc<Matrix>> {
        self.lookup(source_checksum(features), model, freeze, features)
    }

    /// [`CacheRegistry::get_or_build`] for a caller that kept the shard's
    /// key: the same lookup without the checksum walk over `features`, which
    /// must be the features of the shard `key` was derived from.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the frozen forward pass.
    pub(crate) fn get_or_build_keyed(
        &self,
        key: ShardKey,
        model: &BlockNet,
        freeze: FreezeLevel,
        features: &Matrix,
    ) -> Result<Arc<Matrix>> {
        debug_assert_eq!(
            key.features,
            source_checksum(features),
            "a shard key used with another shard's features"
        );
        self.lookup(key.features, model, freeze, features)
    }

    /// The handle onto the score-tier slot of `(key, freeze)` for `model` as
    /// it is now; see [`ScoreSlot`]. Making one touches no lock.
    pub fn score_slot(
        &self,
        key: ShardKey,
        model: &BlockNet,
        freeze: FreezeLevel,
    ) -> ScoreSlot<'_> {
        self.score_slot_at(key, model.parameter_stamp(), freeze)
    }

    /// [`CacheRegistry::score_slot`] for the model version whose parameters
    /// carried `stamp` ([`BlockNet::parameter_stamp`]): an older version an
    /// event round trains from its `θ` snapshot, which is no model of its
    /// own.
    pub(crate) fn score_slot_at(
        &self,
        key: ShardKey,
        stamp: u64,
        freeze: FreezeLevel,
    ) -> ScoreSlot<'_> {
        ScoreSlot {
            registry: self,
            key: key.labelled,
            freeze,
            stamp,
        }
    }

    fn lookup(
        &self,
        source_checksum: u64,
        model: &BlockNet,
        freeze: FreezeLevel,
        features: &Matrix,
    ) -> Result<Arc<Matrix>> {
        let key = CacheKey {
            source_checksum,
            fingerprint: model.frozen_fingerprint(freeze),
            freeze,
        };
        {
            let mut inner = self.lock();
            if let Some(features) = inner.touch(&key) {
                inner.hits += 1;
                return Ok(features);
            }
            inner.misses += 1;
        }
        let boundary = Arc::new(model.forward_frozen(freeze, features)?);
        let bytes = matrix_bytes(&boundary);

        let mut inner = self.lock();
        // Re-check: another thread may have inserted this key while we
        // built. Serve the stored entry so equal shards keep sharing one
        // allocation (the duplicate build is discarded; its miss stands —
        // the work did happen).
        if let Some(features) = inner.touch(&key) {
            return Ok(features);
        }
        // A backbone change invalidates what was cached for this data shard
        // and freeze level: the old activations can never be asked for again
        // (their fingerprint is gone), so drop them instead of letting them
        // squat in the budget.
        while let Some(stale) = inner
            .entries
            .iter()
            .position(|e| e.key.freeze == freeze && e.key.source_checksum == key.source_checksum)
        {
            inner.remove_at(stale);
        }
        if let Some(budget) = inner.budget_bytes {
            if bytes > budget {
                // Larger than the whole budget: serve the activations but
                // never retain them, so the peak stays under budget.
                return Ok(boundary);
            }
            while inner.current_bytes + bytes > budget {
                let Some(lru) = inner
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(i, _)| i)
                else {
                    break;
                };
                inner.remove_at(lru);
            }
        }
        inner.current_bytes += bytes;
        inner.peak_bytes = inner.peak_bytes.max(inner.current_bytes);
        let tick = inner.tick;
        inner.entries.push(CacheEntry {
            key,
            features: Arc::clone(&boundary),
            bytes,
            last_used: tick,
        });
        Ok(boundary)
    }

    /// A snapshot of the registry's counters, read under one guard:
    /// differencing two snapshots attributes every event to exactly one
    /// interval, which is what makes the per-round cache counters on
    /// [`crate::RoundRecord`] exact even while executors keep the registry
    /// hot.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.entries.len(),
            current_bytes: inner.current_bytes,
            peak_bytes: inner.peak_bytes,
        }
    }

    /// The score tier's counters, read under one guard.
    pub fn score_stats(&self) -> ScoreStats {
        let inner = self.lock();
        ScoreStats {
            served: inner.scores_served,
            computed: inner.scores_computed,
            slots: inner.scores.len(),
        }
    }

    /// Number of entries currently cached.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Returns `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached entry and every score slot (counters, including
    /// the peak, are kept).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.entries.clear();
        inner.current_bytes = 0;
        inner.scores.clear();
    }

    #[allow(
        clippy::expect_used,
        reason = "a holder that panicked may have left the byte count and the LRU order out of step"
    )]
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("cache registry lock poisoned")
    }
}

/// A client's handle onto a [`CacheRegistry`].
///
/// [`FeatureCache::new`] wraps a fresh private registry (what a client
/// built outside a pool gets); [`FeatureCache::shared`] wraps a registry
/// shared across clients — typically the one built by
/// [`crate::ClientPool`] — which is what deduplicates entries between
/// logical clients holding the same data shard. Cloning a `FeatureCache`
/// shares the underlying registry either way.
///
/// # Examples
///
/// ```
/// use fedft_core::{CacheRegistry, FeatureCache};
/// use fedft_nn::{BlockNet, BlockNetConfig, FreezeLevel};
/// use fedft_tensor::Matrix;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let registry = CacheRegistry::new();
/// let client_a = FeatureCache::shared(registry.clone());
/// let client_b = FeatureCache::shared(registry.clone());
///
/// let model = BlockNet::new(&BlockNetConfig::new(4, 3).with_hidden(4, 4, 4), 1);
/// let shard = Matrix::from_vec(2, 4, vec![0.25; 8])?;
/// client_a.get_or_build(&model, FreezeLevel::Classifier, &shard)?;
/// client_b.get_or_build(&model, FreezeLevel::Classifier, &shard)?;
///
/// // Both handles resolved to one shared entry: a build, then a hit.
/// assert_eq!(registry.stats().entries, 1);
/// assert_eq!((registry.stats().hits, registry.stats().misses), (1, 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct FeatureCache {
    registry: CacheRegistry,
}

impl FeatureCache {
    /// Creates a handle onto a fresh, private, unbounded registry.
    pub fn new() -> Self {
        FeatureCache::default()
    }

    /// Creates a handle onto an existing (typically shared) registry.
    pub fn shared(registry: CacheRegistry) -> Self {
        FeatureCache { registry }
    }

    /// The registry this handle reads and writes.
    pub fn registry(&self) -> &CacheRegistry {
        &self.registry
    }

    /// Returns the cached boundary activations of `features` under
    /// `model`'s frozen prefix at `freeze`; see
    /// [`CacheRegistry::get_or_build`].
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the frozen forward pass.
    pub fn get_or_build(
        &self,
        model: &BlockNet,
        freeze: FreezeLevel,
        features: &Matrix,
    ) -> Result<Arc<Matrix>> {
        self.registry.get_or_build(model, freeze, features)
    }

    /// Number of entries in the underlying registry.
    pub fn len(&self) -> usize {
        self.registry.len()
    }

    /// Returns `true` when the underlying registry is empty.
    pub fn is_empty(&self) -> bool {
        self.registry.is_empty()
    }

    /// Drops every entry of the underlying registry.
    pub fn clear(&self) {
        self.registry.clear()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedft_nn::BlockNetConfig;

    fn model(seed: u64) -> BlockNet {
        BlockNet::new(&BlockNetConfig::new(5, 3).with_hidden(8, 10, 12), seed)
    }

    fn features() -> Matrix {
        Matrix::from_vec(6, 5, (0..30).map(|v| (v % 7) as f32 * 0.25 - 0.5).collect()).unwrap()
    }

    #[test]
    fn cache_hit_returns_the_same_allocation() {
        let cache = FeatureCache::new();
        let m = model(1);
        let x = features();
        let a = cache.get_or_build(&m, FreezeLevel::Moderate, &x).unwrap();
        let b = cache.get_or_build(&m, FreezeLevel::Moderate, &x).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit");
        assert_eq!(cache.len(), 1);
        assert_eq!(*a, m.forward_frozen(FreezeLevel::Moderate, &x).unwrap());
        let stats = cache.registry().stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.current_bytes, a.rows() * a.cols() * 4);
        assert_eq!(stats.peak_bytes, stats.current_bytes);
    }

    #[test]
    fn distinct_freeze_levels_cache_independently() {
        let cache = FeatureCache::new();
        let m = model(1);
        let x = features();
        let moderate = cache.get_or_build(&m, FreezeLevel::Moderate, &x).unwrap();
        let classifier = cache.get_or_build(&m, FreezeLevel::Classifier, &x).unwrap();
        assert_eq!(cache.len(), 2);
        assert_ne!(moderate.shape(), classifier.shape());
    }

    #[test]
    fn theta_updates_keep_the_cache_warm_but_a_new_backbone_evicts() {
        let cache = FeatureCache::new();
        let freeze = FreezeLevel::Moderate;
        let x = features();
        let mut m = model(1);
        let a = cache.get_or_build(&m, freeze, &x).unwrap();

        // Aggregation only writes θ; the frozen fingerprint is unchanged and
        // the cache stays warm.
        let theta = model(42).trainable_vector(freeze);
        m.set_trainable_vector(freeze, &theta).unwrap();
        let b = cache.get_or_build(&m, freeze, &x).unwrap();
        assert!(Arc::ptr_eq(&a, &b));

        // A different backbone must rebuild, replacing the stale entry.
        let other = model(2);
        let c = cache.get_or_build(&other, freeze, &x).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 1, "stale entry evicted, not accumulated");
        assert_eq!(*c, other.forward_frozen(freeze, &x).unwrap());
        assert_eq!(cache.registry().stats().evictions, 1);
    }

    /// The key is memoised on the model, so the model must forget it exactly
    /// when its backbone is written: never on a θ write (the cache would go
    /// cold every round), always on a write below the boundary (the cache
    /// would serve the old backbone's activations).
    #[test]
    fn an_in_place_backbone_edit_misses_while_theta_writes_keep_hitting() {
        let cache = FeatureCache::new();
        let freeze = FreezeLevel::Moderate;
        let x = features();
        let mut m = model(1);
        let built = cache.get_or_build(&m, freeze, &x).unwrap();

        for seed in 0..100 {
            let theta = model(100 + seed).trainable_vector(freeze);
            m.set_trainable_vector(freeze, &theta).unwrap();
            let served = cache.get_or_build(&m, freeze, &x).unwrap();
            assert!(Arc::ptr_eq(&built, &served), "θ write {seed} went cold");
        }
        let stats = cache.registry().stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (100, 1, 0));

        // One full-model training step, written back, moves ϕ in the same
        // `BlockNet`.
        let mut sgd = fedft_nn::Sgd::new(fedft_nn::SgdConfig::default()).unwrap();
        let mut everything = m.trainable_suffix(FreezeLevel::Full);
        everything
            .train_batch(&x, &[0, 1, 2, 0, 1, 2], &mut sgd)
            .unwrap();
        m.set_full_vector(&everything.trainable_vector()).unwrap();
        let rebuilt = cache.get_or_build(&m, freeze, &x).unwrap();
        assert!(!Arc::ptr_eq(&built, &rebuilt), "stale activations served");
        assert_eq!(*rebuilt, m.forward_frozen(freeze, &x).unwrap());
        assert_ne!(*rebuilt, *built, "the step must have moved the backbone");
        let stats = cache.registry().stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (100, 2, 1));
        assert_eq!(cache.len(), 1, "stale entry evicted, not accumulated");
    }

    #[test]
    fn a_different_feature_matrix_rebuilds_instead_of_hitting() {
        let cache = FeatureCache::new();
        let m = model(1);
        let freeze = FreezeLevel::Moderate;
        let a = cache.get_or_build(&m, freeze, &features()).unwrap();
        // Same backbone, different data: must not serve ϕ(features_a).
        let mut other = features();
        other.set(0, 0, 42.0);
        let b = cache.get_or_build(&m, freeze, &other).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(*b, m.forward_frozen(freeze, &other).unwrap());
    }

    #[test]
    fn clones_share_storage_and_clear_empties() {
        let cache = FeatureCache::new();
        assert!(cache.is_empty());
        let shared = cache.clone();
        let m = model(1);
        let x = features();
        shared
            .get_or_build(&m, FreezeLevel::Classifier, &x)
            .unwrap();
        assert_eq!(cache.len(), 1, "clones share the same storage");
        cache.clear();
        assert!(shared.is_empty());
    }

    #[test]
    fn checksum_distinguishes_matrices_that_share_first_and_last_rows() {
        // Regression: the pre-registry checksum hashed only the first and
        // last rows, so shards differing in interior rows collided — a
        // wrong-data hazard once entries are shared by checksum.
        let a = features();
        let mut b = features();
        b.set(3, 2, 99.0); // interior row only; first and last rows equal
        assert_eq!(a.row(0), b.row(0));
        assert_eq!(a.row(a.rows() - 1), b.row(b.rows() - 1));
        assert_ne!(source_checksum(&a), source_checksum(&b));

        // And through the registry: the two shards must resolve to their
        // own activations, never alias.
        let registry = CacheRegistry::new();
        let m = model(1);
        let fa = registry
            .get_or_build(&m, FreezeLevel::Moderate, &a)
            .unwrap();
        let fb = registry
            .get_or_build(&m, FreezeLevel::Moderate, &b)
            .unwrap();
        assert!(!Arc::ptr_eq(&fa, &fb));
        assert_eq!(*fa, m.forward_frozen(FreezeLevel::Moderate, &a).unwrap());
        assert_eq!(*fb, m.forward_frozen(FreezeLevel::Moderate, &b).unwrap());
        assert_eq!(registry.stats().misses, 2);
    }

    #[test]
    fn checksum_strides_and_pins_the_last_row_for_tall_matrices() {
        // 40 rows → stride ⌈40/16⌉ = 3: rows 0, 3, …, 39 are sampled. The
        // last row is always included even when the stride skips it.
        let rows = 40;
        let base =
            Matrix::from_vec(rows, 2, (0..rows * 2).map(|v| v as f32 * 0.5).collect()).unwrap();
        let mut last_changed = base.clone();
        last_changed.set(rows - 1, 1, -7.0);
        assert_ne!(source_checksum(&base), source_checksum(&last_changed));
        let mut sampled_changed = base.clone();
        sampled_changed.set(3, 0, -7.0);
        assert_ne!(source_checksum(&base), source_checksum(&sampled_changed));
    }

    #[test]
    fn registry_dedups_identical_shards_across_handles() {
        // Two logical clients holding byte-identical copies of one shard
        // resolve to the same allocation: one build, then hits.
        let registry = CacheRegistry::new();
        let client_a = FeatureCache::shared(registry.clone());
        let client_b = FeatureCache::shared(registry.clone());
        let m = model(1);
        let copy_a = features();
        let copy_b = features();
        let fa = client_a
            .get_or_build(&m, FreezeLevel::Moderate, &copy_a)
            .unwrap();
        let fb = client_b
            .get_or_build(&m, FreezeLevel::Moderate, &copy_b)
            .unwrap();
        assert!(Arc::ptr_eq(&fa, &fb), "same shard must share one entry");
        let stats = registry.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn budget_evicts_lru_and_rebuilds_bit_identically() {
        let m = model(1);
        let freeze = FreezeLevel::Moderate;
        let shard = |offset: f32| {
            Matrix::from_vec(
                6,
                5,
                (0..30).map(|v| (v % 7) as f32 * 0.25 - offset).collect(),
            )
            .unwrap()
        };
        let (a, b, c) = (shard(0.5), shard(0.25), shard(0.75));
        let entry_bytes = matrix_bytes(&m.forward_frozen(freeze, &a).unwrap());
        let registry = CacheRegistry::with_budget(Some(2 * entry_bytes));

        let built_a = registry.get_or_build(&m, freeze, &a).unwrap();
        registry.get_or_build(&m, freeze, &b).unwrap();
        // Touch `a` so `b` is the least recently used…
        registry.get_or_build(&m, freeze, &a).unwrap();
        // …then inserting `c` must evict `b`, not `a`.
        registry.get_or_build(&m, freeze, &c).unwrap();
        let stats = registry.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert!(stats.peak_bytes <= 2 * entry_bytes, "peak within budget");
        let again_a = registry.get_or_build(&m, freeze, &a).unwrap();
        assert!(Arc::ptr_eq(&built_a, &again_a), "`a` survived the eviction");

        // The evicted entry rebuilds bit-identically on its next access.
        let rebuilt_b = registry.get_or_build(&m, freeze, &b).unwrap();
        let reference = m.forward_frozen(freeze, &b).unwrap();
        let as_bits = |x: &Matrix| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(as_bits(&rebuilt_b), as_bits(&reference));
        let stats = registry.stats();
        assert_eq!(stats.evictions, 2, "rebuilding `b` evicted the LRU again");
        assert!(stats.current_bytes <= 2 * entry_bytes);
    }

    #[test]
    fn oversized_entries_are_served_but_never_retained() {
        let m = model(1);
        let freeze = FreezeLevel::Moderate;
        let x = features();
        let entry_bytes = matrix_bytes(&m.forward_frozen(freeze, &x).unwrap());
        let registry = CacheRegistry::with_budget(Some(entry_bytes - 1));
        let first = registry.get_or_build(&m, freeze, &x).unwrap();
        assert_eq!(*first, m.forward_frozen(freeze, &x).unwrap());
        assert!(registry.is_empty(), "oversized entry must not be stored");
        let second = registry.get_or_build(&m, freeze, &x).unwrap();
        assert!(!Arc::ptr_eq(&first, &second), "nothing cached to hit");
        let stats = registry.stats();
        assert_eq!((stats.hits, stats.misses), (0, 2));
        assert_eq!(stats.peak_bytes, 0, "peak never exceeded the budget");
    }

    #[test]
    fn stats_deltas_and_accumulation() {
        let registry = CacheRegistry::new();
        let m = model(1);
        let x = features();
        let before = registry.stats();
        registry
            .get_or_build(&m, FreezeLevel::Moderate, &x)
            .unwrap();
        registry
            .get_or_build(&m, FreezeLevel::Moderate, &x)
            .unwrap();
        let after = registry.stats();
        let delta = after.delta_since(&before);
        assert_eq!((delta.hits, delta.misses, delta.evictions), (1, 1, 0));
        assert_eq!(delta.peak_bytes, after.peak_bytes);

        // clear() drops content but keeps the history counters and peak.
        registry.clear();
        let cleared = registry.stats();
        assert_eq!(cleared.entries, 0);
        assert_eq!(cleared.current_bytes, 0);
        assert_eq!(cleared.misses, after.misses);
        assert_eq!(cleared.peak_bytes, after.peak_bytes);
    }

    #[test]
    fn concurrent_hammering_loses_no_counter_and_respects_shard_budgets() {
        // A multi-thread stress over a budgeted registry: every lookup must
        // be counted exactly once (hits + misses = lookups), eviction
        // accounting must balance (entries on hand are exactly the
        // surviving inserts), and the byte ledger must respect the budget
        // at the peak.
        let m = model(1);
        let freeze = FreezeLevel::Moderate;
        let shard = |offset: f32| {
            Matrix::from_vec(
                6,
                5,
                (0..30).map(|v| (v % 7) as f32 * 0.25 - offset).collect(),
            )
            .unwrap()
        };
        let inputs: Vec<Matrix> = (0..16).map(|i| shard(i as f32 * 0.0625)).collect();
        let entry_bytes = matrix_bytes(&m.forward_frozen(freeze, &inputs[0]).unwrap());
        // Budget below the 16-entry working set, so the registry must evict.
        let registry = CacheRegistry::with_budget(Some(8 * entry_bytes));
        let threads = 4;
        let per_thread = 400;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let registry = registry.clone();
                let m = &m;
                let inputs = &inputs;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let x = &inputs[(i * 7 + t * 3) % inputs.len()];
                        let built = registry.get_or_build(m, freeze, x).unwrap();
                        assert_eq!(built.rows(), x.rows());
                    }
                });
            }
        });
        let stats = registry.stats();
        assert_eq!(
            stats.hits + stats.misses,
            threads * per_thread,
            "every lookup counted exactly once"
        );
        assert!(stats.evictions > 0, "a sub-working-set budget must evict");
        assert!(stats.peak_bytes <= 8 * entry_bytes, "peak under budget");
        assert_eq!(stats.current_bytes, stats.entries * entry_bytes);
        // Every cached value is still the right one after the churn.
        for x in &inputs {
            let rebuilt = registry.get_or_build(&m, freeze, x).unwrap();
            assert_eq!(*rebuilt, m.forward_frozen(freeze, x).unwrap());
        }
    }

    fn labelled(labels: Vec<usize>) -> Dataset {
        Dataset::new(features(), labels, 3).unwrap()
    }

    #[test]
    fn a_score_slot_serves_one_shard_level_version_and_kind_only() {
        let registry = CacheRegistry::new();
        let freeze = FreezeLevel::Moderate;
        let shard = ShardKey::of(&labelled(vec![0, 1, 2, 0, 1, 2]));
        let m = model(1);
        let kind = ScoreKind::entropy(0.1);
        let scores = [0.5, 0.25, 0.125, 1.0, 2.0, 4.0];

        let slot = registry.score_slot(shard, &m, freeze);
        let mut out = vec![9.0];
        assert!(!slot.read_into(kind, &mut out), "nothing stored yet");
        assert_eq!(out, [9.0], "a refused read leaves the buffer alone");
        slot.store(kind, &scores);
        assert!(slot.read_into(kind, &mut out));
        assert_eq!(out, scores);
        // A clone holds the same parameters under the same stamp.
        let snapshot = m.clone();
        assert!(registry
            .score_slot(shard, &snapshot, freeze)
            .read_into(kind, &mut out));

        // Another temperature, kind, freeze level, model version or shard.
        assert!(!slot.read_into(ScoreKind::entropy(0.2), &mut out));
        assert!(!slot.read_into(ScoreKind::Loss, &mut out));
        assert!(!slot.read_into(ScoreKind::GradientNorm, &mut out));
        assert!(!registry
            .score_slot(shard, &m, FreezeLevel::Classifier)
            .read_into(kind, &mut out));
        let mut written = m.clone();
        let theta = model(7).trainable_vector(freeze);
        written.set_trainable_vector(freeze, &theta).unwrap();
        assert!(!registry
            .score_slot(shard, &written, freeze)
            .read_into(kind, &mut out));
        assert!(
            !registry
                .score_slot(shard, &model(1), freeze)
                .read_into(kind, &mut out),
            "an equal model built apart is another version: recomputed, never wrong"
        );
        let mut other = features();
        other.set(3, 2, 99.0);
        let other = ShardKey::of(&Dataset::new(other, vec![0, 1, 2, 0, 1, 2], 3).unwrap());
        assert!(!registry
            .score_slot(other, &m, freeze)
            .read_into(kind, &mut out));
        assert_eq!(out, scores, "no refused read wrote anything");
        let stats = registry.score_stats();
        assert_eq!((stats.served, stats.computed), (2, 1));
        assert_eq!(stats.slots, 1);

        // A newer version takes the slot over: the latest scores, one slot.
        let newer = registry.score_slot(shard, &written, freeze);
        newer.store(ScoreKind::Loss, &scores[..4]);
        assert!(!slot.read_into(kind, &mut out), "superseded");
        assert!(newer.read_into(ScoreKind::Loss, &mut out));
        assert_eq!(out, scores[..4]);
        registry
            .score_slot(shard, &m, FreezeLevel::Classifier)
            .store(kind, &scores);
        let stats = registry.score_stats();
        assert_eq!((stats.served, stats.computed, stats.slots), (3, 3, 2));
        // The tier is outside the entry table and all of its ledgers.
        assert_eq!(registry.stats(), CacheStats::default());

        registry.clear();
        assert!(!newer.read_into(ScoreKind::Loss, &mut out));
        let stats = registry.score_stats();
        assert_eq!(stats.slots, 0);
        assert_eq!((stats.served, stats.computed), (3, 3), "counters are kept");
    }

    #[test]
    fn shards_equal_in_features_share_a_boundary_and_never_a_score_slot() {
        let a = labelled(vec![0, 1, 2, 0, 1, 2]);
        let b = labelled(vec![0, 1, 2, 0, 1, 1]);
        let (key_a, key_b) = (ShardKey::of(&a), ShardKey::of(&b));
        assert_eq!(key_a, ShardKey::of(&a.clone()));
        assert_ne!(key_a, key_b, "one label apart");
        assert_ne!(
            key_a,
            ShardKey::of(&Dataset::new(features(), a.labels().to_vec(), 4).unwrap()),
            "one class count apart"
        );

        let registry = CacheRegistry::new();
        let m = model(1);
        let freeze = FreezeLevel::Moderate;
        let boundary_a = registry
            .get_or_build_keyed(key_a, &m, freeze, a.features())
            .unwrap();
        let boundary_b = registry
            .get_or_build_keyed(key_b, &m, freeze, b.features())
            .unwrap();
        assert!(Arc::ptr_eq(&boundary_a, &boundary_b));
        // The keyed lookup is the unkeyed one minus the checksum walk.
        let unkeyed = registry.get_or_build(&m, freeze, a.features()).unwrap();
        assert!(Arc::ptr_eq(&boundary_a, &unkeyed));
        let stats = registry.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));

        registry
            .score_slot(key_a, &m, freeze)
            .store(ScoreKind::Loss, &[1.0; 6]);
        let mut out = Vec::new();
        assert!(!registry
            .score_slot(key_b, &m, freeze)
            .read_into(ScoreKind::Loss, &mut out));
    }
}
