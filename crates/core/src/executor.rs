//! Pluggable execution backends for the federated round loop.
//!
//! Each round of [`crate::Simulation`] trains every participating client
//! against the current global model. How those independent local updates are
//! scheduled is an execution concern, not an algorithmic one, so it lives
//! behind the [`RoundExecutor`] trait with five implementations:
//!
//! * [`SequentialExecutor`] — one client after another on the calling
//!   thread. The reference behaviour.
//! * [`ParallelExecutor`] — participants are split into contiguous chunks
//!   across the persistent worker pool ([`fedft_tensor::pool`]). Every
//!   client update is an independent, pure function of `(global model,
//!   client data, config, round)`, and updates are returned in participant
//!   order regardless of which thread finished first, so round histories
//!   are **bit-identical** to the sequential backend's for the same
//!   [`FlConfig`] seed.
//! * [`DeadlineExecutor`] — a virtual-clock scheduler for heterogeneous
//!   device populations: each sampled client's simulated round time is
//!   predicted from the cost model and its
//!   [`crate::device::DeviceProfile`]; clients that are offline this round
//!   or would miss [`FlConfig::deadline_seconds`] are dropped *before*
//!   training, and only the survivors are trained (by an inner executor)
//!   and aggregated. With an infinite deadline and no offline probability it
//!   degenerates to its inner executor, bit for bit.
//! * [`AsyncExecutor`] — an event-driven simulated clock with **bounded
//!   staleness**: instead of dropping slow devices, aggregation rounds
//!   overlap. A client sampled for round `r` is dispatched as soon as model
//!   version `r − max_staleness` exists and trains against the freshest
//!   version available at its dispatch time, so fast devices start on the
//!   next round while stragglers from earlier rounds are still training.
//!   Updates carry their staleness to the server, which discounts them
//!   during aggregation ([`crate::Server::aggregate_stale`]). With
//!   `max_staleness = 0` (and no offline probability) dispatch stalls until
//!   the current version exists and the executor degenerates to a
//!   synchronous round loop, bit for bit.
//! * [`StreamingExecutor`] — continuous serving over the same event clock:
//!   clients *arrive* after their round is announced (per an
//!   [`ArrivalModel`] on its own RNG stream), train on the freshest
//!   published model, and their finished updates queue in a server-side
//!   buffer that is flushed FedBuff-style every `K` updates or `T`
//!   simulated seconds — so a round's aggregation can carry updates
//!   dispatched in earlier rounds. With `K =` cohort size, steady arrivals
//!   and staleness bound 0 every flush is exactly one full synchronous
//!   round, bit for bit.
//!
//! The backend is selected by the [`ExecutionBackend`] knob on
//! [`FlConfig`]; simulation code only sees the trait, and
//! [`ExecutionBackend::executor_with_workers`] is the single construction
//! point for all five (the scheduling executors expose only `over(..)` for
//! wrapping a custom inner executor in tests).
//!
//! Every backend passes the [`FlConfig`] through to the clients untouched,
//! so the [`FlConfig::feature_cache`] knob behaves identically under each:
//! cache entries (whether in a client-private [`crate::cache::FeatureCache`]
//! or the run-wide shared [`crate::cache::CacheRegistry`]) are keyed by the
//! frozen backbone's fingerprint and the shard's checksum, both invariant
//! across rounds *and* across the async backend's model versions (only `θ`
//! differs), so cached rounds replay uncached histories bit for bit on all
//! five executors — pinned by `tests/feature_cache_e2e.rs` and
//! `tests/logical_pool_e2e.rs`.
//!
//! # Invariants
//!
//! The executor layer is held to a small set of contracts; every new
//! backend (or refactor of an existing one) must keep them green:
//!
//! * **Degenerate-config bit-identity.** Each scheduling backend has a
//!   parameterisation that reduces it to [`SequentialExecutor`] exactly:
//!   `Parallel` always, `Deadline` with an infinite deadline and no offline
//!   tiers, `Async` at `max_staleness = 0`, `Streaming` at
//!   `K = cohort, steady arrivals, staleness 0`. "Reduces" means the
//!   [`crate::RunResult::learning_history`] views are `==` — the histories
//!   with cache counters and flush bookkeeping zeroed, since those
//!   legitimately differ between backends that do the same learning.
//! * **Order-independent aggregation.** Updates are handed to the server
//!   in participant order whatever thread or simulated-clock order produced
//!   them; combined with every local update being a pure function of
//!   `(global model, client data, config, round)`, this is what makes the
//!   parallel backends reproducible.
//! * **Uniform construction and timing.**
//!   [`ExecutionBackend::executor_with_workers`] is the only construction
//!   point; scheduling executors are `over(inner)` wrappers around an inner
//!   training executor and report through the one shared
//!   [`RoundTiming`]/[`UpdateTiming`] surface rather than backend-specific
//!   side channels.
//! * **Cache transparency.** Executors never touch the cache registry
//!   directly — clients do, through their [`crate::cache::FeatureCache`]
//!   handles — and the per-round cache counters on
//!   [`crate::RoundRecord`] are consistent-cut snapshot deltas taken by the
//!   round loop (see [`crate::CacheRegistry::stats`]), so they stay exact
//!   under any number of worker threads and any
//!   [`FlConfig::cache_shards`] setting.

use crate::client::{Client, ClientUpdate};
use crate::config::FlConfig;
use crate::device::{ArrivalModel, DeviceProfile, HeterogeneityModel};
use crate::{FlError, Result};
use fedft_nn::{BlockNet, ParamVector};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Mutex;

/// Which backend executes the clients' local updates each round.
///
/// `Sequential` and `Parallel` only affect wall-clock time of the
/// simulation, never its results. `Deadline` additionally *schedules*: it
/// drops clients that are offline or miss the round deadline, so its results
/// depend on the [`FlConfig`] heterogeneity and deadline knobs (and reduce
/// to the other backends' results when those knobs are neutral). `Async`
/// overlaps aggregation rounds under a staleness bound: results depend on
/// `max_staleness` and reduce to `Sequential` at `max_staleness = 0`.
/// `Streaming` buffers completed updates and flushes them FedBuff-style:
/// results depend on its [`StreamingParams`] and reduce to `Sequential` in
/// the degenerate configuration (buffer = cohort size, steady arrivals,
/// staleness bound 0).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum ExecutionBackend {
    /// Train selected clients one after another on the calling thread.
    Sequential,
    /// Train selected clients concurrently on all available cores
    /// (aggregating in client order, so results match `Sequential` exactly).
    #[default]
    Parallel,
    /// Deadline-based straggler scheduling over the device-heterogeneity
    /// model: predict each client's simulated round time, drop clients that
    /// are offline or would miss the deadline, train the survivors in
    /// parallel.
    Deadline,
    /// Asynchronous bounded-staleness rounds over the device-heterogeneity
    /// model: clients train against the global-model version available at
    /// their dispatch time (at most `max_staleness` versions behind the
    /// round that aggregates them) and the server discounts stale updates.
    Async {
        /// Largest number of global-model versions an aggregated update may
        /// lag behind. `0` forces synchronous rounds — bit-identical to
        /// [`ExecutionBackend::Sequential`] when no device tier has an
        /// offline probability (availability draws still apply under async,
        /// exactly as they do under `Deadline`).
        max_staleness: usize,
    },
    /// Streaming serving mode: sampled clients arrive per the configured
    /// [`ArrivalModel`], completed updates queue in a server-side buffer,
    /// and the buffer is flushed — aggregated with staleness discounting —
    /// every `buffer_size` updates or `flush_seconds` simulated seconds,
    /// whichever comes first.
    Streaming(StreamingParams),
}

impl ExecutionBackend {
    /// Short name used in reports and labels.
    pub fn short_name(&self) -> &'static str {
        match self {
            ExecutionBackend::Sequential => "seq",
            ExecutionBackend::Parallel => "par",
            ExecutionBackend::Deadline => "ddl",
            ExecutionBackend::Async { .. } => "async",
            ExecutionBackend::Streaming(..) => "stream",
        }
    }

    /// Instantiates the executor for this backend — the single construction
    /// point the simulation (and everything above it) goes through. The
    /// scheduling backends (`Deadline`, `Async`, `Streaming`) train their
    /// survivors through a [`ParallelExecutor`].
    ///
    /// `worker_threads` is the optional worker cap (the
    /// [`crate::FlConfig::with_worker_threads`] knob). `None` uses every
    /// hardware thread; the cap only affects backends that train through a
    /// [`ParallelExecutor`] — `Sequential` ignores it by construction.
    pub fn executor_with_workers(&self, worker_threads: Option<usize>) -> Box<dyn RoundExecutor> {
        let parallel = || match worker_threads {
            Some(threads) => ParallelExecutor::with_max_threads(threads),
            None => ParallelExecutor::new(),
        };
        match self {
            ExecutionBackend::Sequential => Box::new(SequentialExecutor),
            ExecutionBackend::Parallel => Box::new(parallel()),
            ExecutionBackend::Deadline => Box::new(DeadlineExecutor::over(parallel())),
            ExecutionBackend::Async { max_staleness } => {
                Box::new(AsyncExecutor::over(*max_staleness, parallel()))
            }
            ExecutionBackend::Streaming(params) => {
                Box::new(StreamingExecutor::over(*params, parallel()))
            }
        }
    }
}

/// Parameters of the streaming backend's buffered-aggregation loop.
///
/// The server flushes its update buffer as soon as either condition is met:
/// `buffer_size` completed updates are queued (FedBuff's `K`), or
/// `flush_seconds` of simulated time have passed since the round was
/// announced (`T`; `f64::INFINITY` disables the timer). Updates still in
/// flight at a flush stay buffered and are aggregated by a later round,
/// discounted by how many versions they lagged
/// ([`crate::Server::aggregate_buffered`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamingParams {
    /// Flush as soon as this many completed updates are buffered (≥ 1).
    pub buffer_size: usize,
    /// Flush at most this many simulated seconds after the round is
    /// announced, even if the buffer is not full. Must be positive;
    /// `f64::INFINITY` (the [`StreamingParams::new`] default) disables the
    /// timer.
    pub flush_seconds: f64,
    /// Largest number of global-model versions a client may be *dispatched*
    /// behind (the same bound [`ExecutionBackend::Async`] enforces): a
    /// cohort sampled for round `r` is invited once version
    /// `r − max_staleness` exists. Staleness at *aggregation* can exceed
    /// this when updates sit in the buffer across flushes — the discount
    /// uses the actual lag.
    pub max_staleness: usize,
    /// When sampled clients become available after their round is announced.
    pub arrival: ArrivalModel,
}

impl StreamingParams {
    /// Streaming parameters that flush every `buffer_size` updates, with no
    /// flush timer, staleness bound 0 and steady arrivals — the degenerate
    /// configuration when `buffer_size` equals the cohort size.
    pub fn new(buffer_size: usize) -> Self {
        StreamingParams {
            buffer_size,
            flush_seconds: f64::INFINITY,
            max_staleness: 0,
            arrival: ArrivalModel::Steady,
        }
    }

    /// Sets the flush timer (simulated seconds; `f64::INFINITY` disables).
    #[must_use]
    pub fn with_flush_seconds(mut self, seconds: f64) -> Self {
        self.flush_seconds = seconds;
        self
    }

    /// Sets the dispatch staleness bound.
    #[must_use]
    pub fn with_max_staleness(mut self, max_staleness: usize) -> Self {
        self.max_staleness = max_staleness;
        self
    }

    /// Sets the arrival model.
    #[must_use]
    pub fn with_arrival(mut self, arrival: ArrivalModel) -> Self {
        self.arrival = arrival;
        self
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] for a zero buffer size, a
    /// non-positive or NaN flush timer, or an invalid arrival model.
    pub fn validate(&self) -> Result<()> {
        if self.buffer_size == 0 {
            return Err(FlError::InvalidConfig {
                what: "streaming buffer_size must be non-zero".into(),
            });
        }
        if self.flush_seconds.is_nan() || self.flush_seconds <= 0.0 {
            return Err(FlError::InvalidConfig {
                what: format!(
                    "streaming flush_seconds must be positive (or infinite), got {}",
                    self.flush_seconds
                ),
            });
        }
        self.arrival.validate()
    }
}

/// Why a sampled client produced no update in a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropReason {
    /// The device was offline this round (availability draw).
    Offline,
    /// The predicted simulated round time exceeded the deadline.
    MissedDeadline,
}

/// A sampled client that was dropped from the round by the scheduler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DroppedClient {
    /// Id of the dropped client.
    pub client_id: usize,
    /// Tier index of the client's device profile.
    pub tier_index: usize,
    /// Why the client was dropped.
    pub reason: DropReason,
    /// The predicted simulated round seconds (`0.0` for offline clients,
    /// which never start).
    pub simulated_seconds: f64,
}

/// Dispatch/arrival bookkeeping of one scheduled update — shared by every
/// scheduling backend (`Deadline`, `Async`, `Streaming`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UpdateTiming {
    /// Id of the client that produced the update.
    pub client_id: usize,
    /// Global-model versions the update lagged behind the round that
    /// aggregated it (`0` = trained on the freshest model).
    pub staleness: usize,
    /// Simulated dispatch time relative to the aggregation round's opening;
    /// negative offsets mean the client started training under an earlier
    /// model version, before this round's model even existed.
    pub dispatch_offset_seconds: f64,
    /// Simulated training + transfer duration on the client's device.
    pub simulated_seconds: f64,
}

/// Why the streaming backend flushed its update buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlushTrigger {
    /// `buffer_size` completed updates were queued.
    BufferFull,
    /// `flush_seconds` of simulated time passed before the buffer filled.
    Timeout,
    /// Neither condition could fire (fewer completions than the buffer size
    /// and no flush timer): the server drained whatever completed so the
    /// round could close.
    Drain,
}

/// Bookkeeping of one buffered flush of the streaming backend.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlushRecord {
    /// What fired the flush.
    pub trigger: FlushTrigger,
    /// Updates sitting in the buffer (completed or in flight) when the
    /// flush decision was made.
    pub buffer_fill: usize,
    /// Flushed updates that were dispatched in an *earlier* round and
    /// carried over in the buffer.
    pub carried: usize,
    /// Clients newly dispatched in this round (this round's arrivals).
    pub arrivals: usize,
    /// Updates still in flight after the flush, carried to the next round.
    pub remaining: usize,
}

/// Round-level timing a scheduling backend attaches to a [`RoundOutcome`] —
/// backend-agnostic: `Deadline` fills it with the slowest-survivor wall
/// clock, `Async` with overlap accounting, `Streaming` additionally with a
/// [`FlushRecord`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RoundTiming {
    /// Per-update timing, parallel to [`RoundOutcome::updates`].
    pub per_update: Vec<UpdateTiming>,
    /// Simulated wall-clock between this round's aggregation and the
    /// previous one. Overlap makes this *shorter* than the slowest client's
    /// duration: stragglers started under earlier versions.
    pub round_wall_seconds: f64,
    /// Buffered-flush bookkeeping, present only on the streaming backend.
    pub flush: Option<FlushRecord>,
}

/// Everything a round executor reports back: one update per surviving
/// participant (in participant order) plus the clients it dropped.
///
/// The streaming backend relaxes the participant-order reading: its updates
/// are the *flushed buffer* in dispatch order — possibly fewer than this
/// round's survivors (stragglers stay buffered) and possibly including
/// clients dispatched in earlier rounds.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RoundOutcome {
    /// Updates of the clients that completed the round, in participant order.
    pub updates: Vec<ClientUpdate>,
    /// Clients sampled for the round but dropped by the scheduler, in
    /// participant order. Empty for non-scheduling backends.
    pub drops: Vec<DroppedClient>,
    /// Staleness and wall-clock timing, attached by the scheduling backends
    /// (`Deadline`, `Async`, `Streaming`). `None` for the plain
    /// `Sequential`/`Parallel` backends, whose wall clock the simulation
    /// derives itself.
    pub timing: Option<RoundTiming>,
}

impl RoundOutcome {
    /// An outcome in which every participant completed (no drops).
    pub fn completed(updates: Vec<ClientUpdate>) -> Self {
        RoundOutcome {
            updates,
            drops: Vec::new(),
            timing: None,
        }
    }

    /// Number of sampled clients that did not survive the round.
    pub fn dropped(&self) -> usize {
        self.drops.len()
    }

    /// Per-update staleness, parallel to [`RoundOutcome::updates`]: the
    /// async scheduler's recorded values, or all zeros for synchronous
    /// backends (every update trained on the freshest model).
    pub fn update_staleness(&self) -> Vec<usize> {
        match &self.timing {
            Some(timing) => timing.per_update.iter().map(|t| t.staleness).collect(),
            None => vec![0; self.updates.len()],
        }
    }
}

/// Executes the local updates of all participants of one round.
///
/// # Contract
///
/// Implementations must return exactly one [`ClientUpdate`] per *surviving*
/// participant, **in participant order** (the order of the `participants`
/// slice), so that server aggregation is deterministic under any scheduling;
/// every sampled participant must appear either in
/// [`RoundOutcome::updates`] or in [`RoundOutcome::drops`]. They must not
/// mutate shared state: a client update is a pure function of its inputs.
pub trait RoundExecutor: Send + Sync + std::fmt::Debug {
    /// Human-readable executor name for logs and error messages.
    fn name(&self) -> &'static str;

    /// Runs the local update of every participant against `global_model`.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::NoParticipants`] for an empty participant set, or
    /// the first client error in participant order.
    fn run_round(
        &self,
        participants: &[&Client],
        global_model: &BlockNet,
        config: &FlConfig,
        round: usize,
    ) -> Result<RoundOutcome>;
}

/// Trains clients one at a time on the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialExecutor;

impl RoundExecutor for SequentialExecutor {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn run_round(
        &self,
        participants: &[&Client],
        global_model: &BlockNet,
        config: &FlConfig,
        round: usize,
    ) -> Result<RoundOutcome> {
        if participants.is_empty() {
            return Err(FlError::NoParticipants { round });
        }
        participants
            .iter()
            .map(|client| client.local_update(global_model, config, round))
            .collect::<Result<Vec<ClientUpdate>>>()
            .map(RoundOutcome::completed)
    }
}

/// Trains clients concurrently on the persistent worker pool
/// ([`fedft_tensor::pool`]).
///
/// Participants are split into contiguous chunks, one per worker — the
/// boundaries depend only on the requested worker count, never on pool
/// occupancy — and the per-chunk results are concatenated in chunk order,
/// so the returned updates are in participant order — identical to
/// [`SequentialExecutor`] output. Dispatching a round wakes parked workers
/// instead of paying a `thread::scope` spawn per chunk.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelExecutor {
    /// Optional cap on worker threads; `None` uses all available cores.
    max_threads: Option<usize>,
}

impl ParallelExecutor {
    /// Creates an executor that uses every available core.
    pub fn new() -> Self {
        ParallelExecutor { max_threads: None }
    }

    /// Caps the number of worker threads (useful for benchmarking scaling).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_max_threads(threads: usize) -> Self {
        assert!(threads > 0, "thread cap must be non-zero");
        ParallelExecutor {
            max_threads: Some(threads),
        }
    }

    fn worker_count(&self, participants: usize) -> usize {
        // An explicit cap is honoured verbatim (not clamped to the core
        // count): it is a request, and it keeps the multi-threaded path
        // exercisable on single-core hosts.
        let workers = self
            .max_threads
            .unwrap_or_else(fedft_tensor::pool::hardware_threads);
        workers.min(participants)
    }
}

impl RoundExecutor for ParallelExecutor {
    fn name(&self) -> &'static str {
        "parallel"
    }

    fn run_round(
        &self,
        participants: &[&Client],
        global_model: &BlockNet,
        config: &FlConfig,
        round: usize,
    ) -> Result<RoundOutcome> {
        if participants.is_empty() {
            return Err(FlError::NoParticipants { round });
        }
        let workers = self.worker_count(participants.len());
        if workers <= 1 {
            return SequentialExecutor.run_round(participants, global_model, config, round);
        }

        // One pool chunk per worker; `run_chunks` splits with the same
        // `div_ceil` boundaries the old scoped-spawn path used and returns
        // results in chunk order, so the concatenation below is in
        // participant order no matter which thread ran which chunk.
        let results: Vec<Result<Vec<ClientUpdate>>> =
            fedft_tensor::pool::run_chunks(participants.len(), workers, |range| {
                // Each worker owns one core; keep the tensor kernels from
                // fanning out a second level of pool jobs underneath.
                fedft_tensor::parallel::single_threaded(|| {
                    participants[range]
                        .iter()
                        .map(|client| client.local_update(global_model, config, round))
                        .collect::<Result<Vec<ClientUpdate>>>()
                })
            });
        let mut updates = Vec::with_capacity(participants.len());
        for chunk in results {
            updates.extend(chunk?);
        }
        Ok(RoundOutcome::completed(updates))
    }
}

/// Resolves a sampled client's device profile and performs its availability
/// draw for the round: `Ok(profile)` when the device is online, `Err(drop
/// record)` when it is offline — the shared preamble of every scheduling
/// backend ([`DeadlineExecutor`], [`AsyncExecutor`]), so drop accounting
/// cannot diverge between them.
fn resolve_or_drop_offline(
    hetero: &HeterogeneityModel,
    client: &Client,
    round: usize,
    seed: u64,
) -> std::result::Result<DeviceProfile, DroppedClient> {
    let profile = hetero.profile_for(client.id(), seed);
    if hetero.is_offline(&profile, round, seed) {
        return Err(DroppedClient {
            client_id: client.id(),
            tier_index: profile.tier_index,
            reason: DropReason::Offline,
            simulated_seconds: 0.0,
        });
    }
    Ok(profile)
}

/// Simulated wall clock of a synchronous round, from the survivors'
/// device-adjusted round seconds: the slowest survivor — unless someone
/// dropped under a finite deadline. A synchronous server cannot tell an
/// offline device from a straggler, so any drop means it waited out the full
/// deadline; without one there is nothing to wait for, and drop-only rounds
/// fall back to the slowest survivor. Shared by [`DeadlineExecutor`] and the
/// simulation's accounting for the plain backends, so neutral-knob deadline
/// histories stay bit-identical to `Sequential`.
pub(crate) fn synchronous_round_wall_seconds(
    survivor_seconds: impl Iterator<Item = f64>,
    any_dropped: bool,
    deadline_seconds: f64,
) -> f64 {
    if any_dropped && deadline_seconds.is_finite() {
        deadline_seconds
    } else {
        survivor_seconds.fold(0.0_f64, f64::max)
    }
}

/// Deadline-based straggler scheduling over a heterogeneous device
/// population (virtual clock).
///
/// For each sampled participant the executor resolves its
/// [`crate::device::DeviceProfile`] from
/// [`FlConfig::heterogeneity`](crate::FlConfig), then:
///
/// 1. drops the client with [`DropReason::Offline`] if its availability
///    draw says the device is offline this round,
/// 2. predicts its simulated round seconds
///    ([`crate::device::HeterogeneityModel::predicted_client_seconds`],
///    which is exact because the cost model is deterministic) and drops the
///    client with [`DropReason::MissedDeadline`] if it exceeds
///    [`FlConfig::deadline_seconds`](crate::FlConfig),
/// 3. trains the survivors with the inner executor and aggregates only
///    their updates.
///
/// Dropped clients never train, mirroring a synchronous server that ignores
/// late updates; the round's simulated wall clock (the slowest surviving
/// device, or the full deadline when someone missed a finite one) is
/// attached to the outcome as a [`RoundTiming`].
///
/// Construct via [`ExecutionBackend::executor_with_workers`]; `over(..)`
/// exists for wrapping a custom inner executor in tests.
#[derive(Debug)]
pub struct DeadlineExecutor {
    inner: Box<dyn RoundExecutor>,
}

impl DeadlineExecutor {
    /// Wraps an arbitrary inner executor. Results are identical for every
    /// (correct) inner executor; only wall-clock time differs.
    pub fn over(inner: impl RoundExecutor + 'static) -> Self {
        DeadlineExecutor {
            inner: Box::new(inner),
        }
    }
}

impl RoundExecutor for DeadlineExecutor {
    fn name(&self) -> &'static str {
        "deadline"
    }

    fn run_round(
        &self,
        participants: &[&Client],
        global_model: &BlockNet,
        config: &FlConfig,
        round: usize,
    ) -> Result<RoundOutcome> {
        if participants.is_empty() {
            return Err(FlError::NoParticipants { round });
        }
        let hetero = &config.heterogeneity;
        // Client-invariant inputs of the prediction, computed once per round
        // and per tier: with `tier_freeze` set, a tier's freeze level changes
        // both its per-sample training FLOPs and its upload size. Without
        // `tier_freeze` every tier resolves to the global freeze and this is
        // the single pre-policy value replicated per tier.
        let tier_flops: Vec<_> = (0..hetero.num_tiers())
            .map(|t| global_model.flops_per_sample(config.effective_freeze(t)))
            .collect();
        let tier_traffic: Vec<_> = (0..hetero.num_tiers())
            .map(|t| crate::comm::round_traffic(global_model, config.effective_freeze(t)))
            .collect();
        let mut survivors: Vec<&Client> = Vec::with_capacity(participants.len());
        let mut profiles: Vec<DeviceProfile> = Vec::with_capacity(participants.len());
        let mut drops: Vec<DroppedClient> = Vec::new();
        for &client in participants {
            let profile = match resolve_or_drop_offline(hetero, client, round, config.seed) {
                Ok(profile) => profile,
                Err(drop) => {
                    drops.push(drop);
                    continue;
                }
            };
            let predicted = hetero.predicted_seconds_from_parts(
                &profile,
                &tier_flops[profile.tier_index],
                &tier_traffic[profile.tier_index],
                client.num_samples(),
                config,
            );
            if predicted > config.deadline_seconds {
                drops.push(DroppedClient {
                    client_id: client.id(),
                    tier_index: profile.tier_index,
                    reason: DropReason::MissedDeadline,
                    simulated_seconds: predicted,
                });
                continue;
            }
            survivors.push(client);
            profiles.push(profile);
        }
        let mut outcome = if survivors.is_empty() {
            // Every sampled client dropped: an empty round, not an error —
            // the simulation keeps the global model and records the drops.
            RoundOutcome::default()
        } else {
            self.inner
                .run_round(&survivors, global_model, config, round)?
        };
        // Attach the synchronous round timing: every update trained on the
        // freshest model (staleness 0, offset 0), and the wall clock comes
        // from the survivors' *post-hoc* device-adjusted times — derived
        // from the measured `compute_seconds`, like the simulation's
        // accounting for the plain backends.
        let per_update: Vec<UpdateTiming> = outcome
            .updates
            .iter()
            .zip(&profiles)
            .map(|(update, profile)| UpdateTiming {
                client_id: update.client_id,
                staleness: 0,
                dispatch_offset_seconds: 0.0,
                simulated_seconds: hetero.simulated_round_seconds(
                    profile,
                    update.compute_seconds,
                    &tier_traffic[profile.tier_index],
                ),
            })
            .collect();
        let round_wall_seconds = synchronous_round_wall_seconds(
            per_update.iter().map(|t| t.simulated_seconds),
            !drops.is_empty(),
            config.deadline_seconds,
        );
        outcome.drops = drops;
        outcome.timing = Some(RoundTiming {
            per_update,
            round_wall_seconds,
            flush: None,
        });
        Ok(outcome)
    }
}

/// Event-clock state shared by [`AsyncExecutor`] and [`StreamingExecutor`],
/// advanced once per round.
///
/// Version `v` is the global model after `v` aggregations; `version_open[v]`
/// is the simulated time at which it became available (`version_open[0] =
/// 0.0`). The executor keeps a **θ snapshot** of every version still inside
/// the staleness window so stale dispatches can train against the exact
/// parameters they downloaded: because only the trainable part is ever
/// aggregated, the frozen backbone `ϕ` is identical across versions and a
/// stale model is reconstructed as (current backbone, snapshotted θ) — an
/// `O(|θ|)` snapshot per version instead of a full `O(|ϕ| + |θ|)` model
/// clone, mirroring what a real client downloads.
#[derive(Debug, Default)]
struct EventClock {
    /// Simulated opening time of every global-model version so far.
    version_open: Vec<f64>,
    /// Retained `(version, θ)` snapshots, ascending by version; only
    /// versions within the staleness window of the current round are kept.
    history: Vec<(usize, ParamVector)>,
    /// Absolute simulated time until which each client's device is busy
    /// training a previously dispatched round.
    busy_until: HashMap<usize, f64>,
    /// The round index the executor expects next (rounds must be executed
    /// in order — the clock is cumulative).
    next_round: usize,
    /// The streaming backend's server-side buffer of updates still awaiting
    /// aggregation; always empty under async.
    pending: Vec<PendingUpdate>,
}

impl EventClock {
    /// Opens `round` on the clock and returns its simulated opening time.
    /// Round 0 resets the clock (dropping any buffered updates of a previous
    /// run); any other round must be the one the clock expects next.
    ///
    /// Retains only the versions a round ≥ `round` may still dispatch
    /// against, then snapshots this round's θ as version `round` — except at
    /// `max_staleness = 0`, where no later round can ever read the snapshot
    /// (the current version is always `global_model`), so the per-round
    /// snapshot is skipped entirely. Only θ is stored: the frozen backbone
    /// never changes between versions (the server aggregates the trainable
    /// part alone), so a stale model is the current backbone plus the
    /// snapshotted θ.
    fn open_round(
        &mut self,
        executor: &'static str,
        round: usize,
        max_staleness: usize,
        global_model: &BlockNet,
        config: &FlConfig,
    ) -> Result<f64> {
        if round == 0 {
            *self = EventClock::default();
            self.version_open.push(0.0);
        } else if round != self.next_round {
            return Err(FlError::InvalidConfig {
                what: format!(
                    "{executor} executor expected round {}, got {round}: event-clock \
                     rounds must run in order on one executor",
                    self.next_round
                ),
            });
        }
        self.history.retain(|(v, _)| v + max_staleness >= round);
        if max_staleness > 0 {
            self.history
                .push((round, global_model.trainable_vector(config.freeze)));
        }
        Ok(self.version_open[round])
    }

    /// The freshest version in `earliest_version..=round` already published
    /// at `dispatch_at`. Dispatch never happens before `earliest_version`
    /// opens, so that version always qualifies: the search cannot fail and
    /// dispatch staleness never exceeds the bound.
    fn freshest_version(&self, earliest_version: usize, round: usize, dispatch_at: f64) -> usize {
        (earliest_version..=round)
            .rev()
            .find(|&v| self.version_open[v] <= dispatch_at)
            .unwrap_or(earliest_version)
    }

    /// Closes `round` after `round_wall` simulated seconds, publishing
    /// version `round + 1`.
    fn close_round(&mut self, round: usize, round_open: f64, round_wall: f64) {
        self.version_open.push(round_open + round_wall);
        self.next_round = round + 1;
    }
}

/// Asynchronous bounded-staleness scheduling over a heterogeneous device
/// population (event-driven simulated clock).
///
/// The executor maintains a virtual timeline of global-model *versions*:
/// version `r` is the model [`AsyncExecutor::run_round`] receives for round
/// `r`, created at simulated time `T_r` (`T_0 = 0`). For every sampled
/// participant of round `r` it:
///
/// 1. drops the client with [`DropReason::Offline`] if its availability
///    draw says the device is offline this round;
/// 2. **dispatches** the client at `max(T_{r − max_staleness},
///    busy_until)` — dispatch *stalls* until the oldest version the bound
///    permits exists, which is exactly how the staleness bound is enforced;
/// 3. trains the client against the freshest version already published at
///    its dispatch time, recording `staleness = r − version`;
/// 4. predicts the client's simulated duration from the cost model and its
///    [`crate::device::DeviceProfile`] (the same deterministic formula the
///    deadline scheduler uses) and schedules its arrival.
///
/// Round `r` closes — creating version `r + 1` — when the last of its
/// updates arrives, but never before `T_r`; because stragglers were
/// dispatched under earlier versions, the per-round wall clock shrinks as
/// `max_staleness` grows. The survivors' updates are computed by the inner
/// executor, grouped by the model version they were dispatched against, and
/// returned in participant order with a [`RoundTiming`] attached so the
/// server can discount them by staleness
/// ([`crate::Server::aggregate_stale`]).
///
/// With `max_staleness = 0` every dispatch stalls until the current version
/// exists, all offsets are zero and the outcome (updates, staleness, wall
/// clock) is **bit-identical** to a synchronous round over
/// [`SequentialExecutor`] — provided no device tier has an offline
/// probability: availability draws still apply under async (like under
/// [`DeadlineExecutor`]), while the sequential backend trains everyone.
///
/// # Contract
///
/// `run_round` must be called once per round, in round order, with the
/// aggregated global model of the previous rounds — the order
/// [`crate::Simulation`] guarantees. Successive models may differ only in
/// their trainable part `θ` (which is all the server ever aggregates): the
/// executor snapshots `θ` per version and reconstructs stale models against
/// the current frozen backbone, exactly as a real client would combine its
/// preinstalled backbone with a downloaded `θ`. Calling round 0 resets the
/// clock, so one executor can serve consecutive runs.
///
/// Construct via [`ExecutionBackend::executor_with_workers`]; `over(..)`
/// exists for wrapping a custom inner executor in tests.
#[derive(Debug)]
pub struct AsyncExecutor {
    max_staleness: usize,
    inner: Box<dyn RoundExecutor>,
    clock: Mutex<EventClock>,
}

impl AsyncExecutor {
    /// Wraps an arbitrary inner executor. Results are identical for every
    /// (correct) inner executor; only real wall-clock time differs.
    pub fn over(max_staleness: usize, inner: impl RoundExecutor + 'static) -> Self {
        AsyncExecutor {
            max_staleness,
            inner: Box::new(inner),
            clock: Mutex::new(EventClock::default()),
        }
    }

    /// The staleness bound this executor enforces.
    pub fn max_staleness(&self) -> usize {
        self.max_staleness
    }
}

/// Trains `dispatched` clients — each annotated with the model version it
/// downloaded — through `inner`, grouped by version, and returns their
/// updates **in the order of `dispatched`**. Stale versions are
/// reconstructed as (current backbone, snapshotted θ from `history`): only
/// the trainable part ever differs between versions. Shared by the async
/// and streaming backends so version-group reconstruction cannot diverge
/// between them.
fn train_version_groups(
    inner: &dyn RoundExecutor,
    dispatched: &[(&Client, usize)],
    history: &[(usize, ParamVector)],
    global_model: &BlockNet,
    config: &FlConfig,
    round: usize,
    current_version: usize,
) -> Result<Vec<ClientUpdate>> {
    let mut updates: Vec<Option<ClientUpdate>> = (0..dispatched.len()).map(|_| None).collect();
    let mut versions: Vec<usize> = dispatched.iter().map(|&(_, v)| v).collect();
    versions.sort_unstable();
    versions.dedup();
    // One scratch model serves every stale version: cloned lazily on the
    // first stale group, then only its θ is rewritten per version.
    let mut stale_scratch: Option<BlockNet> = None;
    for v in versions {
        let positions: Vec<usize> = dispatched
            .iter()
            .enumerate()
            .filter(|(_, &(_, dv))| dv == v)
            .map(|(i, _)| i)
            .collect();
        let group: Vec<&Client> = positions.iter().map(|&i| dispatched[i].0).collect();
        // The current version is the model the caller just passed in; only
        // genuinely stale dispatches reconstruct one from the shared
        // backbone and the version's θ snapshot.
        let model: &BlockNet = if v == current_version {
            global_model
        } else {
            let theta = &history
                .iter()
                .find(|(hv, _)| *hv == v)
                .expect("dispatched version is inside the retained window")
                .1;
            let scratch = stale_scratch.get_or_insert_with(|| global_model.clone());
            scratch.set_trainable_vector(config.freeze, theta)?;
            scratch
        };
        let outcome = inner.run_round(&group, model, config, round)?;
        debug_assert_eq!(outcome.updates.len(), group.len());
        for (position, update) in positions.into_iter().zip(outcome.updates) {
            updates[position] = Some(update);
        }
    }
    Ok(updates
        .into_iter()
        .map(|u| u.expect("every dispatched client trained"))
        .collect())
}

/// One surviving participant's dispatch decision, before training.
struct AsyncDispatch<'c> {
    client: &'c Client,
    version: usize,
    dispatch_offset: f64,
    duration: f64,
}

impl RoundExecutor for AsyncExecutor {
    fn name(&self) -> &'static str {
        "async"
    }

    fn run_round(
        &self,
        participants: &[&Client],
        global_model: &BlockNet,
        config: &FlConfig,
        round: usize,
    ) -> Result<RoundOutcome> {
        if participants.is_empty() {
            return Err(FlError::NoParticipants { round });
        }
        let mut clock = self.clock.lock().expect("async clock lock poisoned");
        let round_open =
            clock.open_round(self.name(), round, self.max_staleness, global_model, config)?;

        let hetero = &config.heterogeneity;
        // Client-invariant inputs of the duration prediction, once per round.
        let flops = global_model.flops_per_sample(config.freeze);
        let traffic = crate::comm::round_traffic(global_model, config.freeze);

        let mut drops: Vec<DroppedClient> = Vec::new();
        let mut dispatches: Vec<AsyncDispatch> = Vec::with_capacity(participants.len());
        let mut round_wall = 0.0_f64;
        for &client in participants {
            let profile = match resolve_or_drop_offline(hetero, client, round, config.seed) {
                Ok(profile) => profile,
                Err(drop) => {
                    drops.push(drop);
                    continue;
                }
            };
            // Dispatch stalls until the oldest version the staleness bound
            // permits exists, and until the device finished its previous
            // dispatch — this is where `max_staleness` is enforced.
            let earliest_version = round.saturating_sub(self.max_staleness);
            let free_at = clock.busy_until.get(&client.id()).copied().unwrap_or(0.0);
            let dispatch_at = clock.version_open[earliest_version].max(free_at);
            let version = clock.freshest_version(earliest_version, round, dispatch_at);
            let duration = hetero.predicted_seconds_from_parts(
                &profile,
                &flops,
                &traffic,
                client.num_samples(),
                config,
            );
            // All arithmetic is kept relative to `round_open` so that at
            // max_staleness = 0 (offset exactly 0.0) the wall clock is
            // bit-identical to the synchronous backends' accounting.
            let dispatch_offset = dispatch_at - round_open;
            round_wall = round_wall.max(dispatch_offset + duration);
            clock
                .busy_until
                .insert(client.id(), round_open + (dispatch_offset + duration));
            dispatches.push(AsyncDispatch {
                client,
                version,
                dispatch_offset,
                duration,
            });
        }
        // The server can close the round the moment it opens if every update
        // already arrived (or everyone was offline) — time never runs back.
        round_wall = round_wall.max(0.0);

        // Train survivors grouped by the model version they dispatched
        // against; scattering the groups back by position restores
        // participant order, so results match a one-by-one replay exactly.
        let dispatched: Vec<(&Client, usize)> =
            dispatches.iter().map(|d| (d.client, d.version)).collect();
        let updates = train_version_groups(
            self.inner.as_ref(),
            &dispatched,
            &clock.history,
            global_model,
            config,
            round,
            round,
        )?;
        let per_update: Vec<UpdateTiming> = dispatches
            .iter()
            .map(|d| UpdateTiming {
                client_id: d.client.id(),
                staleness: round - d.version,
                dispatch_offset_seconds: d.dispatch_offset,
                simulated_seconds: d.duration,
            })
            .collect();

        clock.close_round(round, round_open, round_wall);
        Ok(RoundOutcome {
            updates,
            drops,
            timing: Some(RoundTiming {
                per_update,
                round_wall_seconds: round_wall,
                flush: None,
            }),
        })
    }
}

/// One completed-or-in-flight update queued in the streaming buffer.
///
/// Times are kept as offsets relative to the *dispatch round's* opening
/// (not absolute): entries dispatched in the flushing round then enter the
/// flush arithmetic without ever adding and re-subtracting the round's
/// absolute opening time, which keeps the degenerate configuration's wall
/// clock bit-identical to the synchronous backends'.
#[derive(Debug)]
struct PendingUpdate {
    update: ClientUpdate,
    /// Round the client was sampled in (its dispatch round).
    dispatch_round: usize,
    /// Dispatch index within its round, for deterministic flush ordering.
    position: usize,
    /// Model version the client trained against.
    version: usize,
    /// Dispatch time relative to the dispatch round's opening.
    dispatch_offset: f64,
    /// Simulated training + transfer duration.
    duration: f64,
}

/// Streaming serving mode: continuous buffered aggregation over a client
/// arrival process (FedBuff-style), on the same event-driven simulated
/// clock as [`AsyncExecutor`].
///
/// Each round `r` models one *flush interval* of a continuously serving
/// aggregator. The cohort sampled for round `r` is invited the moment the
/// staleness bound allows (`T_{r − max_staleness}`); each client then
///
/// 1. is dropped with [`DropReason::Offline`] if its availability draw says
///    so (same stream as every scheduling backend);
/// 2. **arrives** `arrival_offset` simulated seconds after the invitation,
///    per the configured [`ArrivalModel`] on the dedicated
///    `"client-arrival"` stream, and dispatches once it has also finished
///    any previous work (`busy_until`);
/// 3. trains against the freshest model version published at its dispatch
///    time (dispatch staleness never exceeds `max_staleness`, exactly as
///    under [`AsyncExecutor`]);
/// 4. completes after its predicted device-adjusted duration, and its
///    update joins the server's **buffer**.
///
/// The round closes at the earliest flush condition: the
/// [`StreamingParams::buffer_size`]-th buffered completion
/// ([`FlushTrigger::BufferFull`]), the flush timer
/// [`StreamingParams::flush_seconds`] after the round opened
/// ([`FlushTrigger::Timeout`]), or — when neither can fire — the last
/// completion in flight ([`FlushTrigger::Drain`]). Every buffered update
/// completed by the flush time is aggregated, ordered by
/// `(dispatch_round, position)`; updates still in flight stay buffered for
/// a later flush, so their staleness at aggregation (`flush round −
/// version`) can exceed the *dispatch* bound — FedBuff semantics, and the
/// discount ([`crate::Server::aggregate_buffered`]) uses the actual lag.
/// Updates still buffered when the run ends are never aggregated, like a
/// real server shutting down mid-stream.
///
/// With `buffer_size =` cohort size, steady arrivals and staleness bound 0,
/// every cohort completes within its own round and flushes in participant
/// order with zero staleness: histories are **bit-identical** to
/// [`SequentialExecutor`] (availability caveats as for async), pinned by
/// `tests/streaming_e2e.rs`.
///
/// # Contract
///
/// Like [`AsyncExecutor`]: rounds must run in order, successive models may
/// differ only in θ, and round 0 resets the clock (dropping any buffered
/// updates of a previous run). Construct via
/// [`ExecutionBackend::executor_with_workers`]; `over(..)` exists for
/// wrapping a custom inner executor in tests.
#[derive(Debug)]
pub struct StreamingExecutor {
    params: StreamingParams,
    inner: Box<dyn RoundExecutor>,
    clock: Mutex<EventClock>,
}

impl StreamingExecutor {
    /// Wraps an arbitrary inner executor. Results are identical for every
    /// (correct) inner executor; only real wall-clock time differs.
    pub fn over(params: StreamingParams, inner: impl RoundExecutor + 'static) -> Self {
        StreamingExecutor {
            params,
            inner: Box::new(inner),
            clock: Mutex::new(EventClock::default()),
        }
    }

    /// The streaming parameters this executor serves under.
    pub fn params(&self) -> &StreamingParams {
        &self.params
    }
}

impl RoundExecutor for StreamingExecutor {
    fn name(&self) -> &'static str {
        "streaming"
    }

    fn run_round(
        &self,
        participants: &[&Client],
        global_model: &BlockNet,
        config: &FlConfig,
        round: usize,
    ) -> Result<RoundOutcome> {
        if participants.is_empty() {
            return Err(FlError::NoParticipants { round });
        }
        let mut clock = self.clock.lock().expect("streaming clock lock poisoned");
        let round_open = clock.open_round(
            self.name(),
            round,
            self.params.max_staleness,
            global_model,
            config,
        )?;

        let hetero = &config.heterogeneity;
        let flops = global_model.flops_per_sample(config.freeze);
        let traffic = crate::comm::round_traffic(global_model, config.freeze);

        // Phase 1 — dispatch this round's arrivals.
        let mut drops: Vec<DroppedClient> = Vec::new();
        let mut dispatches: Vec<AsyncDispatch> = Vec::with_capacity(participants.len());
        let earliest_version = round.saturating_sub(self.params.max_staleness);
        let invite_at = clock.version_open[earliest_version];
        for &client in participants {
            let profile = match resolve_or_drop_offline(hetero, client, round, config.seed) {
                Ok(profile) => profile,
                Err(drop) => {
                    drops.push(drop);
                    continue;
                }
            };
            // The client arrives some time after the invitation and must
            // also have finished any previously dispatched work. Steady
            // arrivals contribute exactly 0.0, reproducing the async
            // dispatch rule bit for bit.
            let arrival_offset =
                self.params
                    .arrival
                    .arrival_offset_seconds(client.id(), round, config.seed);
            let free_at = clock.busy_until.get(&client.id()).copied().unwrap_or(0.0);
            let dispatch_at = (invite_at + arrival_offset).max(free_at);
            let version = clock.freshest_version(earliest_version, round, dispatch_at);
            let duration = hetero.predicted_seconds_from_parts(
                &profile,
                &flops,
                &traffic,
                client.num_samples(),
                config,
            );
            clock.busy_until.insert(client.id(), dispatch_at + duration);
            dispatches.push(AsyncDispatch {
                client,
                version,
                dispatch_offset: dispatch_at - round_open,
                duration,
            });
        }
        let arrivals = dispatches.len();

        // Phase 2 — train the new dispatches (grouped by version, scattered
        // back to dispatch order) and queue them in the buffer.
        let dispatched: Vec<(&Client, usize)> =
            dispatches.iter().map(|d| (d.client, d.version)).collect();
        let trained = if dispatched.is_empty() {
            Vec::new()
        } else {
            train_version_groups(
                self.inner.as_ref(),
                &dispatched,
                &clock.history,
                global_model,
                config,
                round,
                round,
            )?
        };
        for (position, (dispatch, update)) in dispatches.iter().zip(trained).enumerate() {
            clock.pending.push(PendingUpdate {
                update,
                dispatch_round: round,
                position,
                version: dispatch.version,
                dispatch_offset: dispatch.dispatch_offset,
                duration: dispatch.duration,
            });
        }

        // Phase 3 — decide the flush time, working in offsets relative to
        // this round's opening. An entry dispatched in an earlier round is
        // rebased through the gap between the two openings; an entry
        // dispatched *this* round contributes `dispatch_offset + duration`
        // with no rebasing (the gap is exactly 0.0), so the degenerate
        // configuration's flush offset is exactly the slowest duration.
        // The flush fires at the K-th earliest buffered completion, the
        // flush timer, or (when neither can fire) the last completion in
        // flight. Ties go to the buffer condition.
        let completion_offset = |p: &PendingUpdate, version_open: &[f64]| -> f64 {
            (version_open[p.dispatch_round] - round_open) + (p.dispatch_offset + p.duration)
        };
        let buffer_fill = clock.pending.len();
        let mut completions: Vec<f64> = clock
            .pending
            .iter()
            .map(|p| completion_offset(p, &clock.version_open))
            .collect();
        completions.sort_by(f64::total_cmp);
        let buffer_ready_at = (buffer_fill >= self.params.buffer_size)
            .then(|| completions[self.params.buffer_size - 1]);
        let timeout_at = self
            .params
            .flush_seconds
            .is_finite()
            .then_some(self.params.flush_seconds);
        let (flush_offset, trigger) = match (buffer_ready_at, timeout_at) {
            (Some(b), Some(t)) if t < b => (t, FlushTrigger::Timeout),
            (Some(b), _) => (b, FlushTrigger::BufferFull),
            (None, Some(t)) => (t, FlushTrigger::Timeout),
            (None, None) => (
                completions.last().copied().unwrap_or(0.0),
                FlushTrigger::Drain,
            ),
        };
        // The server cannot flush before the round opened (updates that
        // completed even earlier are simply included), and time never runs
        // back.
        let flush_offset = flush_offset.max(0.0);

        // Phase 4 — flush every buffered update completed by the flush
        // time, in dispatch order (round, then position): deterministic,
        // and in the degenerate configuration exactly participant order.
        let mut flushed: Vec<PendingUpdate> = Vec::new();
        let mut remaining: Vec<PendingUpdate> = Vec::with_capacity(clock.pending.len());
        let version_open = std::mem::take(&mut clock.version_open);
        for entry in clock.pending.drain(..) {
            if completion_offset(&entry, &version_open) <= flush_offset {
                flushed.push(entry);
            } else {
                remaining.push(entry);
            }
        }
        clock.version_open = version_open;
        clock.pending = remaining;
        flushed.sort_by_key(|p| (p.dispatch_round, p.position));
        let carried = flushed.iter().filter(|p| p.dispatch_round < round).count();
        let flush = FlushRecord {
            trigger,
            buffer_fill,
            carried,
            arrivals,
            remaining: clock.pending.len(),
        };
        let per_update: Vec<UpdateTiming> = flushed
            .iter()
            .map(|p| UpdateTiming {
                client_id: p.update.client_id,
                staleness: round - p.version,
                dispatch_offset_seconds: (clock.version_open[p.dispatch_round] - round_open)
                    + p.dispatch_offset,
                simulated_seconds: p.duration,
            })
            .collect();
        let updates: Vec<ClientUpdate> = flushed.into_iter().map(|p| p.update).collect();
        let round_wall = flush_offset;

        clock.close_round(round, round_open, round_wall);
        Ok(RoundOutcome {
            updates,
            drops,
            timing: Some(RoundTiming {
                per_update,
                round_wall_seconds: round_wall,
                flush: Some(flush),
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::HeterogeneityModel;
    use fedft_data::Dataset;
    use fedft_nn::{BlockNet, BlockNetConfig};
    use fedft_tensor::{init, rng};

    fn client(id: usize, samples: usize) -> Client {
        let mut r = rng::rng_for_indexed(7, "executor-test", id as u64);
        let features = init::normal(&mut r, samples, 6, 0.0, 1.0);
        Client::new(
            id,
            Dataset::new(features, (0..samples).map(|i| i % 3).collect(), 3).unwrap(),
        )
    }

    fn model() -> BlockNet {
        BlockNet::new(&BlockNetConfig::new(6, 3).with_hidden(10, 10, 10), 5)
    }

    fn config() -> FlConfig {
        FlConfig::default()
            .with_rounds(1)
            .with_local_epochs(1)
            .with_batch_size(8)
    }

    #[test]
    fn backends_have_names_and_default_is_parallel() {
        assert_eq!(ExecutionBackend::default(), ExecutionBackend::Parallel);
        assert_eq!(ExecutionBackend::Sequential.short_name(), "seq");
        assert_eq!(ExecutionBackend::Parallel.short_name(), "par");
        assert_eq!(ExecutionBackend::Deadline.short_name(), "ddl");
        assert_eq!(
            ExecutionBackend::Async { max_staleness: 2 }.short_name(),
            "async"
        );
        assert_eq!(
            ExecutionBackend::Streaming(StreamingParams::new(8)).short_name(),
            "stream"
        );
        let executor_name = |backend: ExecutionBackend| backend.executor_with_workers(None).name();
        assert_eq!(executor_name(ExecutionBackend::Sequential), "sequential");
        assert_eq!(executor_name(ExecutionBackend::Parallel), "parallel");
        assert_eq!(executor_name(ExecutionBackend::Deadline), "deadline");
        assert_eq!(
            executor_name(ExecutionBackend::Async { max_staleness: 2 }),
            "async"
        );
        assert_eq!(
            executor_name(ExecutionBackend::Streaming(StreamingParams::new(8))),
            "streaming"
        );
    }

    #[test]
    fn all_executors_reject_empty_rounds() {
        let m = model();
        let c = config();
        assert!(matches!(
            SequentialExecutor.run_round(&[], &m, &c, 3),
            Err(FlError::NoParticipants { round: 3 })
        ));
        assert!(matches!(
            ParallelExecutor::new().run_round(&[], &m, &c, 9),
            Err(FlError::NoParticipants { round: 9 })
        ));
        assert!(matches!(
            DeadlineExecutor::over(SequentialExecutor).run_round(&[], &m, &c, 4),
            Err(FlError::NoParticipants { round: 4 })
        ));
        assert!(matches!(
            AsyncExecutor::over(1, SequentialExecutor).run_round(&[], &m, &c, 0),
            Err(FlError::NoParticipants { round: 0 })
        ));
        assert!(matches!(
            StreamingExecutor::over(StreamingParams::new(2), SequentialExecutor).run_round(
                &[],
                &m,
                &c,
                0
            ),
            Err(FlError::NoParticipants { round: 0 })
        ));
    }

    #[test]
    fn parallel_output_is_bit_identical_to_sequential_in_participant_order() {
        let clients: Vec<Client> = (0..7).map(|id| client(id, 12 + id)).collect();
        let refs: Vec<&Client> = clients.iter().collect();
        let m = model();
        let c = config();
        let sequential = SequentialExecutor.run_round(&refs, &m, &c, 0).unwrap();
        for workers in [1, 2, 3, 7] {
            let parallel = ParallelExecutor::with_max_threads(workers)
                .run_round(&refs, &m, &c, 0)
                .unwrap();
            assert_eq!(sequential, parallel, "workers={workers}");
        }
        let ids: Vec<usize> = sequential.updates.iter().map(|u| u.client_id).collect();
        assert_eq!(
            ids,
            (0..7).collect::<Vec<_>>(),
            "participant order preserved"
        );
        assert!(sequential.drops.is_empty());
        assert_eq!(sequential.dropped(), 0);
    }

    #[test]
    fn deadline_executor_with_neutral_knobs_matches_sequential_bit_for_bit() {
        let clients: Vec<Client> = (0..5).map(|id| client(id, 10 + id)).collect();
        let refs: Vec<&Client> = clients.iter().collect();
        let m = model();
        let c = config(); // uniform heterogeneity, infinite deadline
        let reference = SequentialExecutor.run_round(&refs, &m, &c, 0).unwrap();
        let deadline = DeadlineExecutor::over(SequentialExecutor)
            .run_round(&refs, &m, &c, 0)
            .unwrap();
        assert_eq!(reference.updates, deadline.updates);
        assert_eq!(reference.drops, deadline.drops);
        // The deadline backend now reports its own timing (sequential does
        // not): one fresh entry per update, wall = slowest device.
        let timing = deadline.timing.expect("deadline outcome carries timing");
        assert_eq!(timing.per_update.len(), reference.updates.len());
        assert!(timing.per_update.iter().all(|t| t.staleness == 0));
        assert!(timing.flush.is_none());
        let slowest = timing
            .per_update
            .iter()
            .map(|t| t.simulated_seconds)
            .fold(0.0_f64, f64::max);
        assert_eq!(timing.round_wall_seconds.to_bits(), slowest.to_bits());
        let deadline_par = DeadlineExecutor::over(ParallelExecutor::new())
            .run_round(&refs, &m, &c, 0)
            .unwrap();
        assert_eq!(reference.updates, deadline_par.updates);
        assert_eq!(Some(&timing), deadline_par.timing.as_ref());
    }

    #[test]
    fn deadline_executor_drops_clients_that_miss_a_tight_deadline() {
        let clients: Vec<Client> = (0..4).map(|id| client(id, 14)).collect();
        let refs: Vec<&Client> = clients.iter().collect();
        let m = model();
        // A deadline below any client's predicted time drops everyone; the
        // round is empty but not an error.
        let c = config().with_deadline(1e-9);
        let outcome = DeadlineExecutor::over(ParallelExecutor::new())
            .run_round(&refs, &m, &c, 0)
            .unwrap();
        assert!(outcome.updates.is_empty());
        assert_eq!(outcome.dropped(), 4);
        assert!(outcome
            .drops
            .iter()
            .all(|d| d.reason == DropReason::MissedDeadline && d.simulated_seconds > 1e-9));
    }

    #[test]
    fn deadline_executor_separates_tiers_by_predicted_time() {
        let clients: Vec<Client> = (0..8).map(|id| client(id, 14)).collect();
        let refs: Vec<&Client> = clients.iter().collect();
        let m = model();
        let hetero = HeterogeneityModel::two_tier();
        let seed = 3;
        // Pick a deadline between the fast- and slow-tier predicted times:
        // all clients hold 14 samples, so the prediction only depends on the
        // tier.
        let fast = hetero.profile_for(
            (0..8)
                .find(|&id| hetero.profile_for(id, seed).tier_index == 0)
                .expect("a fast client"),
            seed,
        );
        let slow = hetero.profile_for(
            (0..8)
                .find(|&id| hetero.profile_for(id, seed).tier_index == 1)
                .expect("a slow client"),
            seed,
        );
        let base = config().with_seed(seed).with_heterogeneity(hetero.clone());
        let t_fast = hetero.predicted_client_seconds(&fast, &m, 14, &base);
        let t_slow = hetero.predicted_client_seconds(&slow, &m, 14, &base);
        assert!(t_fast < t_slow);
        let c = base.with_deadline((t_fast + t_slow) / 2.0);

        let outcome = DeadlineExecutor::over(ParallelExecutor::new())
            .run_round(&refs, &m, &c, 0)
            .unwrap();
        assert!(!outcome.updates.is_empty());
        assert!(!outcome.drops.is_empty());
        for update in &outcome.updates {
            assert_eq!(hetero.profile_for(update.client_id, seed).tier_index, 0);
        }
        for drop in &outcome.drops {
            assert_eq!(drop.tier_index, 1);
            assert_eq!(drop.reason, DropReason::MissedDeadline);
        }
    }

    #[test]
    fn async_zero_staleness_outcome_matches_sequential_bit_for_bit() {
        let clients: Vec<Client> = (0..5).map(|id| client(id, 10 + id)).collect();
        let refs: Vec<&Client> = clients.iter().collect();
        let m = model();
        let c = config()
            .with_heterogeneity(HeterogeneityModel::two_tier())
            .with_seed(3);
        let reference = SequentialExecutor.run_round(&refs, &m, &c, 0).unwrap();
        let executor = AsyncExecutor::over(0, SequentialExecutor);
        let outcome = executor.run_round(&refs, &m, &c, 0).unwrap();
        assert_eq!(reference.updates, outcome.updates);
        assert!(outcome.drops.is_empty());
        let timing = outcome.timing.as_ref().expect("async outcome has timing");
        assert!(timing.per_update.iter().all(|t| t.staleness == 0));
        assert!(timing
            .per_update
            .iter()
            .all(|t| t.dispatch_offset_seconds == 0.0));
        assert_eq!(outcome.update_staleness(), vec![0; 5]);
        // The round wall clock is exactly the slowest device's duration.
        let slowest = timing
            .per_update
            .iter()
            .map(|t| t.simulated_seconds)
            .fold(0.0_f64, f64::max);
        assert_eq!(timing.round_wall_seconds.to_bits(), slowest.to_bits());
    }

    #[test]
    fn async_staleness_is_bounded_and_overlap_shrinks_wall_clock() {
        let clients: Vec<Client> = (0..8).map(|id| client(id, 14)).collect();
        let m = model();
        let base = config()
            .with_rounds(4)
            .with_heterogeneity(HeterogeneityModel::two_tier())
            .with_seed(3);
        // Alternate the participant subset round by round (like partial
        // participation does) so the slow-tier bottleneck rotates and
        // overlap can actually pay off.
        let subset = |round: usize| -> Vec<&Client> {
            clients.iter().filter(|c| c.id() % 2 == round % 2).collect()
        };
        let mut wall = HashMap::new();
        for bound in [0usize, 2] {
            let executor = AsyncExecutor::over(bound, SequentialExecutor);
            let mut model = m.clone();
            let mut total_wall = 0.0;
            let mut saw_stale = false;
            for round in 0..4 {
                let refs = subset(round);
                let outcome = executor.run_round(&refs, &model, &base, round).unwrap();
                let timing = outcome.timing.as_ref().unwrap();
                for t in &timing.per_update {
                    assert!(
                        t.staleness <= bound,
                        "staleness {} exceeds bound {bound}",
                        t.staleness
                    );
                    saw_stale |= t.staleness > 0;
                }
                total_wall += timing.round_wall_seconds;
                // Advance the model like the simulation would, so versions
                // genuinely differ between rounds.
                let server = crate::Server::new();
                let staleness = outcome.update_staleness();
                let theta = server
                    .aggregate_stale(&outcome.updates, &staleness, round)
                    .unwrap();
                model.set_trainable_vector(base.freeze, &theta).unwrap();
            }
            assert!(
                bound == 0 || saw_stale,
                "bound {bound} must exercise staleness"
            );
            wall.insert(bound, total_wall);
        }
        assert!(
            wall[&2] < wall[&0],
            "overlap must shrink the simulated wall clock ({} vs {})",
            wall[&2],
            wall[&0]
        );
    }

    #[test]
    fn async_executor_rejects_out_of_order_rounds() {
        let clients: Vec<Client> = (0..2).map(|id| client(id, 10)).collect();
        let refs: Vec<&Client> = clients.iter().collect();
        let m = model();
        let c = config();
        let executor = AsyncExecutor::over(1, SequentialExecutor);
        executor.run_round(&refs, &m, &c, 0).unwrap();
        let err = executor.run_round(&refs, &m, &c, 2).unwrap_err();
        assert!(matches!(err, FlError::InvalidConfig { .. }));
        // Round 0 resets the clock, so a fresh run on the same executor works.
        executor.run_round(&refs, &m, &c, 0).unwrap();
        executor.run_round(&refs, &m, &c, 1).unwrap();
        assert_eq!(executor.max_staleness(), 1);
    }

    #[test]
    fn async_executor_drops_offline_clients() {
        let clients: Vec<Client> = (0..6).map(|id| client(id, 12)).collect();
        let refs: Vec<&Client> = clients.iter().collect();
        let m = model();
        let flaky = HeterogeneityModel::from_tiers(vec![
            crate::DeviceTier::new("flaky", 1.0, 1.0).with_drop_probability(0.9)
        ]);
        let c = config().with_heterogeneity(flaky).with_seed(9);
        let executor = AsyncExecutor::over(1, SequentialExecutor);
        let outcome = executor.run_round(&refs, &m, &c, 0).unwrap();
        assert_eq!(outcome.updates.len() + outcome.drops.len(), 6);
        assert!(
            !outcome.drops.is_empty(),
            "a 90% offline probability over 6 clients should drop someone"
        );
        assert!(outcome
            .drops
            .iter()
            .all(|d| d.reason == DropReason::Offline));
        let timing = outcome.timing.unwrap();
        assert_eq!(timing.per_update.len(), outcome.updates.len());
    }

    #[test]
    fn streaming_params_validation_rejects_bad_values() {
        assert!(StreamingParams::new(1).validate().is_ok());
        assert!(StreamingParams::new(64)
            .with_flush_seconds(30.0)
            .with_max_staleness(4)
            .with_arrival(ArrivalModel::Burst {
                mean_offset_seconds: 5.0,
            })
            .validate()
            .is_ok());
        assert!(StreamingParams::new(0).validate().is_err());
        assert!(StreamingParams::new(4)
            .with_flush_seconds(0.0)
            .validate()
            .is_err());
        assert!(StreamingParams::new(4)
            .with_flush_seconds(-1.0)
            .validate()
            .is_err());
        assert!(StreamingParams::new(4)
            .with_flush_seconds(f64::NAN)
            .validate()
            .is_err());
        assert!(StreamingParams::new(4)
            .with_arrival(ArrivalModel::Burst {
                mean_offset_seconds: -1.0,
            })
            .validate()
            .is_err());
    }

    #[test]
    fn degenerate_streaming_outcome_matches_sequential_bit_for_bit() {
        let clients: Vec<Client> = (0..5).map(|id| client(id, 10 + id)).collect();
        let refs: Vec<&Client> = clients.iter().collect();
        let m = model();
        let c = config()
            .with_heterogeneity(HeterogeneityModel::two_tier())
            .with_seed(3);
        let reference = SequentialExecutor.run_round(&refs, &m, &c, 0).unwrap();
        // K = cohort size, steady arrivals, staleness bound 0: one full
        // synchronous round.
        let executor = StreamingExecutor::over(StreamingParams::new(5), SequentialExecutor);
        let outcome = executor.run_round(&refs, &m, &c, 0).unwrap();
        assert_eq!(reference.updates, outcome.updates);
        assert!(outcome.drops.is_empty());
        let timing = outcome.timing.as_ref().expect("streaming carries timing");
        assert!(timing.per_update.iter().all(|t| t.staleness == 0));
        assert!(timing
            .per_update
            .iter()
            .all(|t| t.dispatch_offset_seconds == 0.0));
        let flush = timing.flush.as_ref().expect("streaming records the flush");
        assert_eq!(flush.trigger, FlushTrigger::BufferFull);
        assert_eq!(flush.buffer_fill, 5);
        assert_eq!(flush.carried, 0);
        assert_eq!(flush.arrivals, 5);
        assert_eq!(flush.remaining, 0);
        let slowest = timing
            .per_update
            .iter()
            .map(|t| t.simulated_seconds)
            .fold(0.0_f64, f64::max);
        assert_eq!(timing.round_wall_seconds.to_bits(), slowest.to_bits());
    }

    #[test]
    fn streaming_buffer_smaller_than_cohort_carries_updates_forward() {
        let clients: Vec<Client> = (0..8).map(|id| client(id, 10 + id)).collect();
        let refs: Vec<&Client> = clients.iter().collect();
        let m = model();
        let c = config()
            .with_heterogeneity(HeterogeneityModel::two_tier())
            .with_seed(3);
        let executor = StreamingExecutor::over(StreamingParams::new(4), SequentialExecutor);
        let first = executor.run_round(&refs, &m, &c, 0).unwrap();
        let flush0 = first.timing.as_ref().unwrap().flush.clone().unwrap();
        // Distinct sample counts give distinct durations, so the 4-deep
        // buffer flushes exactly the 4 fastest and leaves the rest pending.
        assert_eq!(flush0.trigger, FlushTrigger::BufferFull);
        assert_eq!(first.updates.len(), 4);
        assert_eq!(flush0.buffer_fill, 8);
        assert_eq!(flush0.remaining, 4);
        assert_eq!(flush0.carried, 0);
        let second = executor.run_round(&refs, &m, &c, 1).unwrap();
        let timing1 = second.timing.as_ref().unwrap();
        let flush1 = timing1.flush.clone().unwrap();
        // The stragglers of round 0 complete during round 1 and flush with
        // it: carried updates, aggregated at staleness beyond their (zero)
        // dispatch bound — FedBuff semantics.
        assert!(flush1.carried >= 1, "round 1 must flush carried updates");
        assert_eq!(flush1.buffer_fill, flush0.remaining + flush1.arrivals);
        assert!(
            timing1.per_update.iter().any(|t| t.staleness >= 1),
            "carried updates age past their dispatch round"
        );
        assert!(
            timing1
                .per_update
                .iter()
                .any(|t| t.dispatch_offset_seconds < 0.0),
            "carried updates were dispatched before round 1 opened"
        );
    }

    #[test]
    fn streaming_timeout_flush_can_close_an_empty_round() {
        let clients: Vec<Client> = (0..5).map(|id| client(id, 10)).collect();
        let refs: Vec<&Client> = clients.iter().collect();
        let m = model();
        let c = config();
        // Timer far below any device duration and a buffer nobody can fill:
        // the flush fires on the timer with nothing completed yet.
        let params = StreamingParams::new(100).with_flush_seconds(1e-12);
        let executor = StreamingExecutor::over(params, SequentialExecutor);
        let outcome = executor.run_round(&refs, &m, &c, 0).unwrap();
        assert!(outcome.updates.is_empty());
        let timing = outcome.timing.as_ref().unwrap();
        assert_eq!(timing.round_wall_seconds, 1e-12);
        let flush = timing.flush.as_ref().unwrap();
        assert_eq!(flush.trigger, FlushTrigger::Timeout);
        assert_eq!(flush.buffer_fill, 5);
        assert_eq!(flush.remaining, 5);
        // The buffered cohort eventually drains over later rounds.
        let second = executor.run_round(&refs, &m, &c, 1).unwrap();
        let flush1 = second.timing.as_ref().unwrap().flush.clone().unwrap();
        assert_eq!(flush1.trigger, FlushTrigger::Timeout);
        assert!(second.updates.len() + flush1.remaining == flush1.buffer_fill);
    }

    #[test]
    fn streaming_drain_flush_when_neither_condition_can_fire() {
        let clients: Vec<Client> = (0..3).map(|id| client(id, 10 + id)).collect();
        let refs: Vec<&Client> = clients.iter().collect();
        let m = model();
        let c = config()
            .with_heterogeneity(HeterogeneityModel::two_tier())
            .with_seed(3);
        // Buffer deeper than the cohort, no timer: the round drains every
        // update in flight, like a shutdown flush.
        let executor = StreamingExecutor::over(StreamingParams::new(64), SequentialExecutor);
        let outcome = executor.run_round(&refs, &m, &c, 0).unwrap();
        assert_eq!(outcome.updates.len(), 3);
        let timing = outcome.timing.as_ref().unwrap();
        let flush = timing.flush.as_ref().unwrap();
        assert_eq!(flush.trigger, FlushTrigger::Drain);
        assert_eq!(flush.remaining, 0);
        let slowest = timing
            .per_update
            .iter()
            .map(|t| t.simulated_seconds)
            .fold(0.0_f64, f64::max);
        assert_eq!(timing.round_wall_seconds.to_bits(), slowest.to_bits());
    }

    #[test]
    fn streaming_burst_arrivals_shift_dispatches_and_stay_deterministic() {
        let clients: Vec<Client> = (0..6).map(|id| client(id, 12)).collect();
        let refs: Vec<&Client> = clients.iter().collect();
        let m = model();
        let c = config().with_seed(11);
        let params = StreamingParams::new(6).with_arrival(ArrivalModel::Burst {
            mean_offset_seconds: 3.0,
        });
        let run = || {
            StreamingExecutor::over(params, SequentialExecutor)
                .run_round(&refs, &m, &c, 0)
                .unwrap()
        };
        let outcome = run();
        let timing = outcome.timing.as_ref().unwrap();
        assert!(
            timing
                .per_update
                .iter()
                .any(|t| t.dispatch_offset_seconds > 0.0),
            "burst arrivals must spread dispatches out in time"
        );
        // Same seed, fresh executor: bit-identical replay.
        assert_eq!(outcome, run());
    }

    #[test]
    fn streaming_executor_rejects_out_of_order_rounds() {
        let clients: Vec<Client> = (0..2).map(|id| client(id, 10)).collect();
        let refs: Vec<&Client> = clients.iter().collect();
        let m = model();
        let c = config();
        let executor = StreamingExecutor::over(StreamingParams::new(2), SequentialExecutor);
        executor.run_round(&refs, &m, &c, 0).unwrap();
        let err = executor.run_round(&refs, &m, &c, 2).unwrap_err();
        assert!(matches!(err, FlError::InvalidConfig { .. }));
        // Round 0 resets the clock (dropping any buffered updates).
        executor.run_round(&refs, &m, &c, 0).unwrap();
        executor.run_round(&refs, &m, &c, 1).unwrap();
        assert_eq!(executor.params().buffer_size, 2);
    }

    #[test]
    fn worker_count_respects_cap_and_participants() {
        let e = ParallelExecutor::with_max_threads(2);
        assert_eq!(e.worker_count(1), 1);
        assert!(e.worker_count(100) <= 2);
        let unlimited = ParallelExecutor::new();
        assert!(unlimited.worker_count(3) <= 3);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_thread_cap_is_rejected() {
        let _ = ParallelExecutor::with_max_threads(0);
    }
}
