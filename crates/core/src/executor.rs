//! The round executor: which sampled clients train, on which model version,
//! and when the server stops waiting for them.
//!
//! Each round of [`crate::Simulation`] trains the sampled clients against
//! the global model. How those independent local updates are scheduled is an
//! execution concern, selected by the [`ExecutionBackend`] knob on
//! [`FlConfig`]; the variant docs say what each backend does and which
//! parameterisation reduces it to `Sequential`.
//! [`ExecutionBackend::executor_with_workers`] builds the one [`Executor`],
//! which runs every round through one body, a buffered flush on a simulated
//! clock: admit (device profile, availability draw, duration prediction,
//! deadline drop) → dispatch each admitted client, once its device is free,
//! on the freshest model version published by then, into a buffer → flush at
//! the `K`-th buffered completion, the flush timer, or — when neither can
//! fire — the last completion in flight → train what the flush took, each on
//! the version it downloaded, at the one place a local update
//! ([`Client::local_update_in`]) runs. The flush decision is a pure function
//! of the buffered dispatches' times, and the clock a plan that carries
//! state keeps — its versions, busy devices, buffer and `θ` snapshots — is
//! its own type; both live in the crate-private `clock` module.
//!
//! A backend is a plan for that body: `Async { s }` is the last-completion
//! (drain) case at staleness bound `s`, `Sequential` and `Parallel` the
//! drain at 0 with no availability draw, and `Deadline` that plus the draw
//! and a deadline that drops instead of carrying. A drain at 0 carries
//! nothing between rounds, so it runs without the clock, in any round order.
//!
//! The executor also owns the memory a round trains in — the `θ` upload
//! buffers and one [`ClientWorkspace`] per runner — and keeps it from round
//! to round; see [`Executor`].
//!
//! # Invariants
//!
//! * **Degenerate-config bit-identity.** Every backend has a
//!   parameterisation, named in its variant doc, that reduces it to
//!   `Sequential` exactly; and `Async { s }` is `Streaming` with an
//!   unfillable buffer, no timer and staleness bound `s`. "Reduces" means
//!   the [`crate::RunResult::learning_history`] views are `==` — the
//!   histories with cache counters and flush bookkeeping zeroed, since those
//!   legitimately differ between backends that do the same learning.
//! * **Order-independent aggregation.** Updates are handed to the server in
//!   participant (or dispatch) order whatever thread or simulated-clock
//!   order produced them; with every local update a pure function of
//!   `(model, client data, config, round)`, that is what makes the pooled
//!   path reproducible at any worker count.
//! * **One timing surface.** Every backend reports through
//!   [`RoundTiming`]/[`UpdateTiming`]; the round loop derives no wall clock
//!   of its own.
//! * **Cache transparency.** The executor passes the [`FlConfig`] through to
//!   the clients untouched and never touches a cache registry — clients do,
//!   through their [`crate::cache::FeatureCache`] handles, whose keys (the
//!   frozen backbone's fingerprint, the shard's checksum) are invariant
//!   across rounds and model versions: only `θ` differs. Cached rounds
//!   therefore replay uncached histories bit for bit on every backend
//!   (`tests/feature_cache_e2e.rs`, `tests/logical_pool_e2e.rs`), at any
//!   worker count.

use crate::client::{Client, ClientUpdate, ClientWorkspace, ModelVersion, ThetaSnapshot};
use crate::clock::{self, DispatchTime, EventClock, PendingUpdate};
use crate::comm::round_traffic;
use crate::config::FlConfig;
use crate::device::ArrivalModel;
use crate::{FlError, Result};
use fedft_nn::BlockNet;
use fedft_tensor::pool;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Which backend executes the clients' local updates each round.
///
/// `Sequential` and `Parallel` only affect wall-clock time of the
/// simulation, never its results. The other three *schedule* over the
/// [`FlConfig::heterogeneity`] device model: each sampled client first takes
/// its per-round availability draw (offline devices are dropped with
/// [`DropReason::Offline`] and never train). Every backend times a client by
/// its simulated round seconds, predicted from the cost model and its
/// [`crate::DeviceProfile`] — exactly, not as an estimate, because every
/// term of the cost model is a deterministic function of the same inputs.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum ExecutionBackend {
    /// Train selected clients one after another on the calling thread. The
    /// reference behaviour every other backend reduces to.
    Sequential,
    /// Train selected clients concurrently: the workers of the persistent
    /// pool ([`fedft_tensor::pool`]) take the clients of one shard at a
    /// time, largest first, and every update is put back at its participant
    /// position, so results match `Sequential` bit for bit at any worker
    /// count.
    #[default]
    Parallel,
    /// Deadline-based straggler scheduling: clients whose predicted time
    /// exceeds [`FlConfig::deadline_seconds`] are dropped with
    /// [`DropReason::MissedDeadline`] *before* training — a synchronous
    /// server ignores late updates — and only the survivors are trained and
    /// aggregated. A round whose every client dropped is empty, not an
    /// error. With an infinite deadline and no offline probability nobody
    /// drops and the round is `Sequential`'s, bit for bit.
    Deadline,
    /// Asynchronous bounded-staleness rounds: instead of dropping slow
    /// devices, aggregation rounds overlap. A client sampled for round `r`
    /// is dispatched at `max(T_{r − max_staleness}, busy_until)` — it
    /// *stalls* until the oldest version the bound permits exists, which is
    /// how the bound is enforced — and trains against the freshest version
    /// published by then. Round `r` closes when the last of its updates
    /// arrives, but never before it opened (`T_r`); because stragglers were
    /// dispatched under earlier versions, the per-round wall clock shrinks
    /// as `max_staleness` grows. Updates carry their staleness to the
    /// server, which discounts them ([`crate::Server::aggregate_stale`]).
    Async {
        /// Largest number of global-model versions an aggregated update may
        /// lag behind. `0` forces synchronous rounds — bit-identical to
        /// [`ExecutionBackend::Sequential`] when no device tier has an
        /// offline probability (availability draws still apply under async,
        /// exactly as they do under `Deadline`).
        max_staleness: usize,
    },
    /// Streaming serving mode (FedBuff-style buffered aggregation): each
    /// round is one *flush interval* of a continuously serving aggregator.
    /// The cohort is invited as soon as the staleness bound allows; each
    /// client arrives per the configured [`ArrivalModel`], dispatches like
    /// an `Async` client, and its finished update joins a server-side
    /// buffer. The round closes at the `buffer_size`-th buffered completion
    /// ([`FlushTrigger::BufferFull`]; ties go to it), at `flush_seconds`
    /// after it opened ([`FlushTrigger::Timeout`]), or — when neither can
    /// fire — at the last completion in flight ([`FlushTrigger::Drain`]).
    /// Everything completed by then is aggregated in `(dispatch round,
    /// dispatch position)` order; updates still in flight stay buffered for
    /// a later flush, and those still buffered when the run ends are never
    /// aggregated, like a real server shutting down mid-stream — nor
    /// trained: the simulator computes an update at the flush that
    /// aggregates it, on the version its dispatch downloaded. With
    /// `buffer_size =` cohort size, steady arrivals and staleness bound 0,
    /// every cohort flushes within its own round in participant order:
    /// `Sequential`'s history, bit for bit (availability caveat as for
    /// `Async`; `tests/streaming_e2e.rs`).
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
    /// point the simulation (and everything above it) goes through.
    ///
    /// `worker_threads` is the optional worker cap (the
    /// [`crate::FlConfig::with_worker_threads`] knob). `None` uses every
    /// hardware thread; `Sequential` ignores it by construction. A cap is
    /// honoured verbatim rather than clamped to the core count: it is a
    /// request, and it keeps the pooled path exercisable on single-core
    /// hosts. Nothing is validated here — [`Executor::run_round`] rejects a
    /// zero cap and invalid [`StreamingParams`].
    pub fn executor_with_workers(&self, worker_threads: Option<usize>) -> Executor {
        Executor {
            backend: *self,
            worker_threads,
            clock: Mutex::new(EventClock::default()),
            uploads: Mutex::new(Vec::new()),
            workspaces: Mutex::new(Vec::new()),
        }
    }
}

/// Parameters of [`ExecutionBackend::Streaming`]'s buffered-aggregation
/// loop: FedBuff's `K` and `T`, the dispatch staleness bound and the arrival
/// process. Flushed updates are discounted by how many versions they
/// actually lagged ([`crate::Server::aggregate_stale`]).
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

/// Dispatch/arrival bookkeeping of one update, on every backend.
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

/// Round-level timing attached to every [`RoundOutcome`]: the flush's wall
/// clock and per-update dispatch accounting, and under `Streaming` the
/// [`FlushRecord`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RoundTiming {
    /// Per-update timing, parallel to [`RoundOutcome::updates`].
    pub per_update: Vec<UpdateTiming>,
    /// Simulated wall-clock between this round's aggregation and the
    /// previous one. Under `Async` and `Streaming` overlap can make this
    /// *shorter* than the slowest client's duration: stragglers started
    /// under earlier versions.
    pub round_wall_seconds: f64,
    /// Buffered-flush bookkeeping, present only on the streaming backend.
    pub flush: Option<FlushRecord>,
}

/// Everything the executor reports back: one update per surviving
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
    /// participant order. Empty on the plain backends.
    pub drops: Vec<DroppedClient>,
    /// Staleness and wall-clock timing. Every backend attaches it; the field
    /// is an `Option` only because the benchmark harness and
    /// `tests/eval_boundary_e2e.rs` read it as one.
    pub timing: Option<RoundTiming>,
}

impl RoundOutcome {
    /// Number of sampled clients that did not survive the round.
    pub fn dropped(&self) -> usize {
        self.drops.len()
    }

    /// Per-update staleness, parallel to [`RoundOutcome::updates`]: all
    /// zeros for a synchronous round (every update trained on the freshest
    /// model), and for an outcome without timing.
    pub fn update_staleness(&self) -> Vec<usize> {
        match &self.timing {
            Some(timing) => timing.per_update.iter().map(|t| t.staleness).collect(),
            None => vec![0; self.updates.len()],
        }
    }
}

/// Runs the local updates of one round's participants under an
/// [`ExecutionBackend`]; built by
/// [`ExecutionBackend::executor_with_workers`].
///
/// # Contract
///
/// Every sampled participant appears either in [`RoundOutcome::updates`]
/// (under `Streaming`, possibly a later round's) or in
/// [`RoundOutcome::drops`], each **in participant order**, so that server
/// aggregation is deterministic under any scheduling.
///
/// `Async` at a positive staleness bound and `Streaming` (but for its drain
/// at bound 0) keep a cumulative clock: `run_round` must be called once per
/// round, in round order and inside the run (`round < config.rounds`), with
/// the aggregated global model of the previous rounds — the order
/// [`crate::Simulation`] guarantees. Successive models may differ only in
/// their trainable part `θ`, which is all the server ever aggregates and all
/// the clock snapshots per version; it holds a snapshot only while a later
/// round of the run can still train on it. Round 0 resets the clock
/// (dropping any buffered updates), so one executor can serve consecutive
/// runs. The other backends' rounds run in any order.
///
/// An executor also keeps the memory its rounds train in — a free list of
/// `θ` upload buffers, fed by [`Executor::recycle`], and one
/// [`ClientWorkspace`] per runner — so that a round after the first
/// allocates nothing `θ`-sized per client. None of it is state: a round's
/// outcome is the same on a new executor, on one that has served other
/// model widths, and whether or not anything was ever recycled
/// (`tests/round_memory_e2e.rs`).
#[derive(Debug)]
pub struct Executor {
    backend: ExecutionBackend,
    /// Optional cap on worker threads; `None` uses all available cores.
    worker_threads: Option<usize>,
    /// The simulated timeline of a plan that keeps state; one that keeps
    /// none ([`FlushPlan::keeps_no_state`]) never locks it.
    clock: Mutex<EventClock>,
    /// θ buffers waiting to carry an upload again: what [`Executor::recycle`]
    /// was handed back, topped up by [`Executor::train`] to one per job.
    uploads: Mutex<Vec<Vec<f32>>>,
    /// One training workspace per runner the widest round so far used; a
    /// round takes them out and puts them back.
    workspaces: Mutex<Vec<ClientWorkspace>>,
}

/// How [`Executor::event_round`] runs one backend's round: what
/// [`Executor::run_round`] decides from the backend alone.
struct FlushPlan {
    /// The buffer, flush timer, dispatch staleness bound and arrivals.
    stream: StreamingParams,
    /// Whether a sampled client takes the per-round availability draw.
    availability: bool,
    /// Drop, not carry, a client predicted to finish later; a round that
    /// dropped anyone under a finite deadline lasts the deadline.
    deadline: Option<f64>,
    /// Whether the outcome carries the [`FlushRecord`].
    records_flush: bool,
}

impl FlushPlan {
    /// Whether the plan drains at staleness 0 with steady arrivals and no
    /// timer: every dispatch starts at the opening on the model passed in
    /// and flushes within its round, which leaves nothing for the next one.
    fn keeps_no_state(&self) -> bool {
        let stream = &self.stream;
        stream.buffer_size == usize::MAX
            && stream.flush_seconds == f64::INFINITY
            && stream.max_staleness == 0
            && stream.arrival == ArrivalModel::Steady
    }
}

/// A sampled client admitted to the round.
struct Admitted<'c> {
    client: &'c Client,
    /// Predicted device-adjusted round seconds: the duration the update's
    /// own cost accounting will give, bit for bit.
    predicted_seconds: f64,
}

/// One local update for [`Executor::train`]: the client, the model version
/// it downloaded (the live backbone and, for an older version, its `θ`
/// snapshot), and the round it was dispatched in — which names its RNG
/// streams, so a round that trains a carried dispatch at a later flush gets
/// the update its dispatch round would have.
type Job<'a> = (&'a Client, ModelVersion<'a>, usize);

impl Executor {
    /// Runs the local update of every admitted participant and reports the
    /// round as its backend schedules it.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::NoParticipants`] for an empty participant set,
    /// [`FlError::InvalidConfig`] for a zero worker cap, invalid
    /// [`StreamingParams`], a round out of order on a backend that keeps a
    /// clock, a round at or past `config.rounds` on such a backend (its clock
    /// keeps `θ` snapshots only for the flushes left inside the run, so the
    /// round is refused before any work), or the first client error in the
    /// order the round trains: flush order, which is participant order
    /// whenever the cohort flushes within its own round. A round trains a
    /// dispatch at the flush that aggregates it, so a client's error surfaces
    /// in that round, which under `Streaming` may be a later one than its
    /// dispatch; an update still in flight when the run ends is never
    /// computed, and never errs.
    pub fn run_round(
        &self,
        participants: &[&Client],
        global_model: &BlockNet,
        config: &FlConfig,
        round: usize,
    ) -> Result<RoundOutcome> {
        // An executor can be built from a backend and a cap that
        // `FlConfig::validate` never saw, so the values that would otherwise
        // index out of bounds or hand a cohort to zero workers are rejected
        // here.
        if self.worker_threads == Some(0) {
            return Err(FlError::InvalidConfig {
                what: "the executor's worker-thread cap must be non-zero when set".into(),
            });
        }
        if participants.is_empty() {
            return Err(FlError::NoParticipants { round });
        }
        // Every backend but `Streaming` drains: steady arrivals, a buffer
        // nobody can fill, no timer.
        let drain = StreamingParams::new(usize::MAX);
        let (stream, availability, deadline) = match self.backend {
            ExecutionBackend::Sequential | ExecutionBackend::Parallel => (drain, false, None),
            ExecutionBackend::Deadline => (drain, true, Some(config.deadline_seconds)),
            ExecutionBackend::Async { max_staleness } => {
                (drain.with_max_staleness(max_staleness), true, None)
            }
            ExecutionBackend::Streaming(params) => {
                params.validate()?;
                (params, true, None)
            }
        };
        let plan = FlushPlan {
            stream,
            availability,
            deadline,
            records_flush: matches!(self.backend, ExecutionBackend::Streaming(_)),
        };
        self.event_round(&plan, participants, global_model, config, round)
    }

    /// Takes back the θ buffers of updates the caller is done with — a
    /// round's [`RoundOutcome::updates`] once aggregated and recorded — so
    /// that later rounds upload into them instead of into fresh allocations.
    /// Optional: an executor that is never handed anything allocates every
    /// round's uploads, as it would on its first round. Any vector will do
    /// (another executor's, an empty one, a longer one): a buffer is emptied
    /// and fitted to the round's θ before a client writes to it.
    pub fn recycle(&self, updates: Vec<ClientUpdate>) {
        lock(&self.uploads).extend(updates.into_iter().map(|u| u.theta.into_values()));
    }

    /// Decides who trains this round: resolves each sampled client's device
    /// profile, predicts its duration and, as the plan says, takes the
    /// availability draw and drops whoever would miss the deadline. Returns
    /// the clients that will train and those that will not, each in
    /// participant order.
    fn admit<'c>(
        &self,
        plan: &FlushPlan,
        participants: &[&'c Client],
        global_model: &BlockNet,
        config: &FlConfig,
        round: usize,
    ) -> (Vec<Admitted<'c>>, Vec<DroppedClient>) {
        let hetero = &config.heterogeneity;
        // Client-invariant inputs of the prediction, once per round and per
        // tier: a tier's freeze level sets its per-sample training FLOPs and,
        // under `tier_freeze`, its upload size.
        let tier_costs: Vec<_> = (0..hetero.num_tiers())
            .map(|t| {
                let freeze = config.effective_freeze(t);
                (
                    global_model.flops_per_sample(freeze),
                    round_traffic(global_model, freeze),
                )
            })
            .collect();

        let mut admitted = Vec::with_capacity(participants.len());
        let mut drops = Vec::new();
        for &client in participants {
            let profile = hetero.profile_for(client.id(), config.seed);
            let (rejected, predicted_seconds) =
                if plan.availability && hetero.is_offline(&profile, round, config.seed) {
                    // An offline device never starts, so its record keeps 0.0.
                    (Some(DropReason::Offline), 0.0)
                } else {
                    let (flops, traffic) = &tier_costs[profile.tier_index];
                    let predicted = hetero.predicted_seconds_from_parts(
                        &profile,
                        flops,
                        traffic,
                        client.num_samples(),
                        config,
                    );
                    let late = plan.deadline.is_some_and(|deadline| predicted > deadline);
                    (late.then_some(DropReason::MissedDeadline), predicted)
                };
            match rejected {
                Some(reason) => drops.push(DroppedClient {
                    client_id: client.id(),
                    tier_index: profile.tier_index,
                    reason,
                    simulated_seconds: predicted_seconds,
                }),
                None => admitted.push(Admitted {
                    client,
                    predicted_seconds,
                }),
            }
        }
        (admitted, drops)
    }

    /// Trains every [`Job`] and returns the updates in the order of `jobs` —
    /// the one place a local update runs.
    ///
    /// Every round hands the jobs out by **shard unit**
    /// ([`shard_units`], [`hand_out`]): the clients of one shard that train
    /// one model version at one freeze level share one boundary and one
    /// score slot, so one runner trains them one after another and the
    /// shard is built and scored once, not once per runner that happened to
    /// take one of its clients at the same moment. Units go out largest
    /// first, so no worker idles behind a fixed share of the cohort while
    /// another still has clients queued, and none holds more than
    /// ⌈jobs / (2·workers)⌉ clients, so a cohort over few shards still
    /// reaches every worker (two units of a shard cut that way may both
    /// build and score it). Each result is put back at its job's position,
    /// so the output — and the error reported, the first in `jobs` order —
    /// is the same whichever thread ran which client. One runner
    /// (`Sequential`, a worker cap of 1, a one-core host) takes the same
    /// hand-out: the pool runs it inline on this thread and outside any
    /// single-threaded scope, so the tensor kernels still fan out underneath
    /// a lone update.
    ///
    /// The round's memory is the executor's: every update is written into a
    /// buffer of the upload free list, which this thread tops up first, and
    /// every runner trains in one kept [`ClientWorkspace`]. Neither can
    /// change an update ([`Client::local_update_in`]).
    fn train(&self, jobs: &[Job<'_>], config: &FlConfig) -> Result<Vec<ClientUpdate>> {
        // One upload buffer per job, allocated here and not where it is
        // filled: a buffer is freed (or recycled) by the thread that calls
        // `run_round`, and glibc returns a freed block to the arena of the
        // thread that allocated it — buffers born on the workers would pile
        // up in arenas this thread cannot reuse them from.
        // The longest θ of the round: every job trains on the one backbone,
        // an older version's θ snapshot is taken at `config.freeze`, and a
        // tier's freeze level is never shallower than it.
        let theta_len = jobs.first().map_or(0, |(_, model, _)| {
            model.backbone.trainable_parameter_count(config.freeze)
        });
        {
            let mut free = lock(&self.uploads);
            let kept = free.len();
            free.resize_with(kept.max(jobs.len()), Vec::new);
            // Jobs pop from the end; every buffer one of them can get fits
            // the round's longest θ.
            for buffer in free.iter_mut().rev().take(jobs.len()) {
                buffer.clear();
                buffer.reserve(theta_len);
            }
        }
        let run = |workspace: &mut ClientWorkspace, &(client, model, round): &Job<'_>| {
            let upload = lock(&self.uploads).pop().unwrap_or_default();
            client.local_update_on(workspace, upload, model, config, round)
        };
        let workers = if self.backend == ExecutionBackend::Sequential {
            1
        } else {
            self.worker_threads
                .unwrap_or_else(pool::hardware_threads)
                .clamp(1, jobs.len().max(1))
        };
        // One workspace per runner, for the whole round: a runner's second
        // client trains where its first left everything warm. (A round that
        // panics drops the ones it took; the next makes new ones.)
        let mut workspaces = std::mem::take(&mut *lock(&self.workspaces));
        if workspaces.len() < workers {
            workspaces.resize_with(workers, ClientWorkspace::default);
        }
        // The score tier's key, the freeze level as its block count (which
        // sorts): a unit's clients find one boundary and one slot, which the
        // unit's first client fills for the rest.
        let keys: Vec<_> = jobs
            .iter()
            .map(|(client, model, _)| {
                (
                    client.shard_key(),
                    model.stamp(),
                    config.freeze_for_client(client.id()).frozen_blocks(),
                )
            })
            .collect();
        let work: Vec<usize> = jobs
            .iter()
            .map(|(client, _, _)| client.num_samples())
            .collect();
        let units = shard_units(&keys, &work, workers);
        let trained = hand_out(
            units.len(),
            &mut workspaces[..workers],
            |workspace, unit| {
                units[unit]
                    .iter()
                    .map(|&position| (position, run(workspace, &jobs[position])))
                    .collect::<Vec<_>>()
            },
        );
        // Every position is in exactly one unit, and every unit is run.
        let mut placed: Vec<_> = trained.into_iter().flatten().collect();
        placed.sort_unstable_by_key(|&(position, _)| position);
        let updates = placed.into_iter().map(|(_, update)| update).collect();
        *lock(&self.workspaces) = workspaces;
        updates
    }

    /// The one round body: one flush interval of `plan`. An empty flush —
    /// everyone dropped, or nothing completed in time — is an empty round,
    /// not an error: the simulation keeps the global model.
    fn event_round(
        &self,
        plan: &FlushPlan,
        participants: &[&Client],
        global_model: &BlockNet,
        config: &FlConfig,
        round: usize,
    ) -> Result<RoundOutcome> {
        let params = &plan.stream;
        let mut clock = if plan.keeps_no_state() {
            None
        } else {
            Some(match self.clock.lock() {
                Ok(guard) => guard,
                // Round 0 overwrites the whole clock, so nothing a panicking
                // round left half-written is ever read.
                Err(poisoned) if round == 0 => poisoned.into_inner(),
                Err(_) => {
                    return Err(FlError::InvalidConfig {
                        what: format!(
                            "{} executor: an earlier round panicked while holding the event \
                             clock; restart from round 0",
                            self.backend.short_name()
                        ),
                    })
                }
            })
        };
        let round_open = clock.as_deref_mut().map_or(Ok(0.0), |clock| {
            clock.open_round(self.backend.short_name(), round, config.rounds)
        })?;
        let (admitted, drops) = self.admit(plan, participants, global_model, config, round);

        // Dispatch this round's arrivals into the buffer. On the clock, the
        // cohort is invited when the oldest version the staleness bound
        // permits opens — this is where `max_staleness` is enforced — and
        // each client starts, on the freshest version published by then,
        // once it has arrived and finished any earlier dispatch; without it,
        // at the opening on the model passed in. Nothing trains yet: a
        // dispatch is trained by the flush that aggregates it.
        let mut buffer = clock
            .as_deref_mut()
            .map(|clock| std::mem::take(&mut clock.pending))
            .unwrap_or_default();
        let earliest_version = round.saturating_sub(params.max_staleness);
        let arrivals = admitted.len();
        for (position, a) in admitted.iter().enumerate() {
            let id = a.client.id();
            let (dispatch_at, version) = match clock.as_deref_mut() {
                Some(clock) => {
                    let arrival = params
                        .arrival
                        .arrival_offset_seconds(id, round, config.seed);
                    clock.dispatch(id, round, earliest_version, arrival, a.predicted_seconds)
                }
                None => (round_open, round),
            };
            buffer.push(PendingUpdate {
                client: a.client.clone(),
                dispatch_round: round,
                position,
                version,
                time: DispatchTime {
                    round_open,
                    offset: dispatch_at - round_open,
                    duration: a.predicted_seconds,
                },
            });
        }

        // Flush every buffered update completed by the flush time, in
        // dispatch order (round, then position): deterministic, and when the
        // whole cohort flushes within its own round exactly participant
        // order.
        let times: Vec<DispatchTime> = buffer.iter().map(|p| p.time).collect();
        let decision = clock::decide_flush(
            &times,
            round_open,
            params.buffer_size,
            params.flush_seconds,
            plan.deadline.filter(|_| !drops.is_empty()),
        );
        let round_wall_seconds = decision.round_wall_seconds;
        let buffer_fill = buffer.len();
        let (mut flushed, mut remaining) = (Vec::new(), Vec::new());
        for (p, taken) in buffer.into_iter().zip(decision.flushed) {
            if taken {
                flushed.push(p);
            } else {
                remaining.push(p);
            }
        }
        flushed.sort_by_key(|p| (p.dispatch_round, p.position));
        let flush = FlushRecord {
            trigger: decision.trigger,
            buffer_fill,
            carried: flushed.iter().filter(|p| p.dispatch_round < round).count(),
            arrivals,
            remaining: remaining.len(),
        };
        let per_update: Vec<UpdateTiming> = flushed
            .iter()
            .map(|p| UpdateTiming {
                client_id: p.client.id(),
                staleness: round - p.version,
                dispatch_offset_seconds: p.time.start(round_open),
                simulated_seconds: p.time.duration,
            })
            .collect();

        // Train the flushed dispatches in one call, in flush order, each on
        // the version it downloaded and under its dispatch round: `round` is
        // the model just passed in, and an older version is that model as
        // backbone with the version's θ snapshot from the clock — no model is
        // cloned. The updates are the ones training at dispatch would have
        // made; those never flushed are never trained.
        let jobs = flushed
            .iter()
            .map(|p| {
                let snapshot = if p.version == round {
                    None
                } else {
                    let kept = clock.as_deref().and_then(|clock| clock.snapshot(p.version));
                    let Some(snapshot) = kept else {
                        return Err(FlError::InvalidConfig {
                            what: format!(
                                "{} executor: round {round} holds no snapshot of model version {}",
                                self.backend.short_name(),
                                p.version
                            ),
                        });
                    };
                    Some(snapshot)
                };
                let version = ModelVersion {
                    backbone: global_model,
                    snapshot,
                };
                Ok((&p.client, version, p.dispatch_round))
            })
            .collect::<Result<Vec<_>>>()?;
        let updates = self.train(&jobs, config)?;

        // A plan without a clock drains: nothing remains for a next round.
        if let Some(clock) = clock.as_deref_mut() {
            clock.close_round(
                round,
                round_wall_seconds,
                remaining,
                params,
                config.rounds,
                || ThetaSnapshot {
                    stamp: global_model.parameter_stamp(),
                    theta: global_model.trainable_vector(config.freeze),
                },
            );
        }
        Ok(RoundOutcome {
            updates,
            drops,
            timing: Some(RoundTiming {
                per_update,
                round_wall_seconds,
                flush: plan.records_flush.then_some(flush),
            }),
        })
    }
}

/// Locks a free list. A panic while one is held leaves a list of whole
/// buffers, so a poisoned lock is taken over, not reported.
fn lock<T>(list: &Mutex<Vec<T>>) -> MutexGuard<'_, Vec<T>> {
    list.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The hand-out units of a round ([`Executor::train`]): the positions
/// of `keys` grouped by equal key — in a round, the clients that share one
/// boundary and one score slot — each group in position order and cut into
/// consecutive pieces of at most ⌈n / (2·workers)⌉ positions, listed by
/// non-increasing total `work` (ties in the order of their first
/// positions).
///
/// The cap is what lets a cohort over few shards reach every worker: with no
/// unit above it there are at least `min(workers, n)` units, so no runner a
/// round starts finds the cursor empty while another still holds more than
/// its share. The pieces of a group it cuts may run at once on two runners
/// and both build or score. `workers` must be non-zero.
fn shard_units<K: Ord>(keys: &[K], work: &[usize], workers: usize) -> Vec<Vec<usize>> {
    // Sorted rather than hashed: a round's few hundred keys sort in a third
    // of the time they take to hash. The position makes every sort key
    // distinct, so the unstable sort is deterministic.
    let mut by_key: Vec<usize> = (0..keys.len()).collect();
    by_key.sort_unstable_by_key(|&position| (&keys[position], position));
    let cap = keys.len().div_ceil(2 * workers).max(1);
    let mut units: Vec<Vec<usize>> = by_key
        .chunk_by(|&a, &b| keys[a] == keys[b])
        .flat_map(|group| group.chunks(cap))
        .map(<[usize]>::to_vec)
        .collect();
    // Largest first: a unit's time grows with its shard and its members, and
    // a large unit claimed last would run alone while the other workers wait
    // at the round's barrier. Ties go by first position, so the hand-out
    // order is a function of the cohort alone.
    units.sort_by_cached_key(|unit| {
        let unit_work: usize = unit.iter().map(|&position| work[position]).sum();
        (Reverse(unit_work), unit[0])
    });
    units
}

/// Runs `body(state, unit)` for every unit in `0..units` on one pool runner
/// per entry of `states` — `workers` of them below — and returns the
/// results in no particular order: runner by runner, each in the order it
/// took its units. A runner has its state to itself from its first unit to
/// its last.
///
/// Exactly `workers` runners start on the persistent pool
/// ([`pool::run_parts`]), one per state, each taking the next unclaimed unit
/// from one shared cursor until none is left. A pool job runs
/// single-threaded: a runner owns one core, so the tensor kernels do not fan
/// out a second level of pool jobs underneath — which is also what makes
/// `workers` a cap on the threads a round uses. A runner the pool gets to
/// late (more runners than pool threads, or a single-core host, where the
/// pool runs them one after another on the caller) finds the cursor
/// exhausted and returns at once.
///
/// # Panics
///
/// A panicking `body` ends its runner; the others finish the remaining
/// units, and the pool then re-raises the first panic here.
fn hand_out<S: Send, T: Send>(
    units: usize,
    states: &mut [S],
    body: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    // Relaxed: the cursor only decides who takes which unit. What a runner
    // produces reaches this thread through the pool's own synchronisation.
    let cursor = AtomicUsize::new(0);
    pool::run_parts(states, |state| {
        std::iter::from_fn(|| Some(cursor.fetch_add(1, Ordering::Relaxed)))
            .take_while(|&unit| unit < units)
            .map(|unit| body(state, unit))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock;
    use crate::device::HeterogeneityModel;
    use crate::{CacheRegistry, FeatureCache, Method};
    use fedft_data::Dataset;
    use fedft_nn::{BlockNet, BlockNetConfig};
    use fedft_tensor::{init, rng};
    use rand::seq::SliceRandom;
    use std::collections::{HashMap, HashSet};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Arc, Condvar};
    use std::time::Duration;

    fn data(id: usize, samples: usize) -> Dataset {
        data_of_width(id, samples, 6)
    }

    /// [`data`] with `width` features: any width but 6 is a shard [`model`]
    /// cannot read.
    fn data_of_width(id: usize, samples: usize, width: usize) -> Dataset {
        let mut r = rng::rng_for_indexed(7, "executor-test", id as u64);
        let features = init::normal(&mut r, samples, width, 0.0, 1.0);
        Dataset::new(features, (0..samples).map(|i| i % 3).collect(), 3).unwrap()
    }

    fn client(id: usize, samples: usize) -> Client {
        Client::new(id, data(id, samples))
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

    fn sequential() -> Executor {
        ExecutionBackend::Sequential.executor_with_workers(None)
    }

    /// `backend` on the pool, at the host's default worker count.
    fn pooled(backend: ExecutionBackend) -> Executor {
        backend.executor_with_workers(None)
    }

    /// `backend` training inline, one shard unit after another.
    fn inline(backend: ExecutionBackend) -> Executor {
        backend.executor_with_workers(Some(1))
    }

    fn async_inline(max_staleness: usize) -> Executor {
        inline(ExecutionBackend::Async { max_staleness })
    }

    fn streaming_inline(params: StreamingParams) -> Executor {
        inline(ExecutionBackend::Streaming(params))
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
    }

    #[test]
    fn all_executors_reject_empty_rounds() {
        let m = model();
        let c = config();
        assert!(matches!(
            sequential().run_round(&[], &m, &c, 3),
            Err(FlError::NoParticipants { round: 3 })
        ));
        assert!(matches!(
            pooled(ExecutionBackend::Parallel).run_round(&[], &m, &c, 9),
            Err(FlError::NoParticipants { round: 9 })
        ));
        assert!(matches!(
            inline(ExecutionBackend::Deadline).run_round(&[], &m, &c, 4),
            Err(FlError::NoParticipants { round: 4 })
        ));
        assert!(matches!(
            async_inline(1).run_round(&[], &m, &c, 0),
            Err(FlError::NoParticipants { round: 0 })
        ));
        assert!(matches!(
            streaming_inline(StreamingParams::new(2)).run_round(&[], &m, &c, 0),
            Err(FlError::NoParticipants { round: 0 })
        ));
    }

    #[test]
    fn parallel_output_is_bit_identical_to_sequential_in_participant_order() {
        let clients: Vec<Client> = (0..7).map(|id| client(id, 12 + id)).collect();
        let refs: Vec<&Client> = clients.iter().collect();
        let m = model();
        let c = config();
        let sequential = sequential().run_round(&refs, &m, &c, 0).unwrap();
        for workers in [1, 2, 3, 7] {
            let parallel = ExecutionBackend::Parallel
                .executor_with_workers(Some(workers))
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

    /// `n` clients (ids `0..n`) whose shard sizes spread over `1..=200` in a
    /// seeded shuffle, so that participant order is not size order.
    fn mixed_cohort(n: usize) -> Vec<Client> {
        let mut sizes: Vec<usize> = (0..n).map(|i| 1 + i * 199 / (n.max(2) - 1)).collect();
        sizes.shuffle(&mut rng::rng_for(13, "executor-cohort"));
        sizes
            .into_iter()
            .enumerate()
            .map(|(id, samples)| client(id, samples))
            .collect()
    }

    /// `n` clients (ids `0..n`) over three physical shards of 75, 9 and 40
    /// samples — client `i` holds shard `i % 3` — on one shared registry: a
    /// logical pool's cohort, where the clients of a shard form a unit.
    fn shared_cohort(n: usize) -> Vec<Client> {
        let cache = FeatureCache::shared(CacheRegistry::new());
        let shards: Vec<Arc<Dataset>> = [75, 9, 40]
            .into_iter()
            .enumerate()
            .map(|(shard, samples)| Arc::new(data(1000 + shard, samples)))
            .collect();
        (0..n)
            .map(|id| Client::from_shard(id, Arc::clone(&shards[id % 3]), cache.clone()))
            .collect()
    }

    /// [`config`] with the work a shard's clients share switched on: cached
    /// boundaries and entropy scores.
    fn shared_config() -> FlConfig {
        Method::FedFtEds { pds: 0.5 }
            .configure(config())
            .with_feature_cache(true)
    }

    const COHORTS: [usize; 5] = [1, 2, 3, 7, 64];
    const CAPS: [Option<usize>; 5] = [Some(1), Some(2), Some(3), Some(7), None];

    #[test]
    fn handed_out_rounds_equal_sequential_rounds_at_every_cohort_size_and_cap() {
        let m = model();
        // Uniform devices, infinite deadline: `Deadline` is neutral.
        for n in COHORTS {
            for (clients, c) in [
                (mixed_cohort(n), config()),
                (shared_cohort(n), shared_config()),
            ] {
                let refs: Vec<&Client> = clients.iter().collect();
                let reference = sequential().run_round(&refs, &m, &c, 0).unwrap();
                assert_eq!(reference.updates.len(), n);
                for backend in [ExecutionBackend::Parallel, ExecutionBackend::Deadline] {
                    for cap in CAPS {
                        let outcome = backend
                            .executor_with_workers(cap)
                            .run_round(&refs, &m, &c, 0)
                            .unwrap();
                        assert_eq!(
                            outcome, reference,
                            "{backend:?}, {n} clients, cap {cap:?}, shared {}",
                            c.feature_cache
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn handed_out_event_rounds_with_two_stale_versions_equal_inline_ones() {
        // Staleness bound 2 and a draining flush: every update is aggregated
        // in the round that dispatched it, so `update_staleness()` is the lag
        // of the version each job trained on.
        let params = StreamingParams::new(usize::MAX).with_max_staleness(2);
        let c = config().with_rounds(5);
        for n in COHORTS {
            let clients = mixed_cohort(n);
            let refs: Vec<&Client> = clients.iter().collect();
            let run = |cap: Option<usize>| -> Vec<RoundOutcome> {
                let executor = ExecutionBackend::Streaming(params).executor_with_workers(cap);
                let mut global = model();
                (0..5)
                    .map(|round| {
                        let outcome = executor.run_round(&refs, &global, &c, round).unwrap();
                        // Advance the model as the simulation would, so
                        // that the versions differ in θ.
                        let theta = crate::Server::new()
                            .aggregate_stale(&outcome.updates, &outcome.update_staleness(), round)
                            .unwrap();
                        global.set_trainable_vector(c.freeze, &theta).unwrap();
                        outcome
                    })
                    .collect()
            };
            // No synchronous round trains on stale versions; the reference
            // is the same backend training inline, on one runner.
            let reference = run(Some(1));
            if n >= 7 {
                assert!(
                    reference.iter().any(|outcome| {
                        let lags: HashSet<usize> = outcome.update_staleness().into_iter().collect();
                        lags.contains(&1) && lags.contains(&2)
                    }),
                    "{n} clients: some round must train on two stale versions at once"
                );
            }
            for cap in &CAPS[1..] {
                assert_eq!(run(*cap), reference, "{n} clients, cap {cap:?}");
            }
        }
    }

    #[test]
    fn the_first_failing_participant_is_reported_at_every_cap() {
        let m = model();
        for (mut clients, c) in [
            (mixed_cohort(8), config()),
            (shared_cohort(8), shared_config()),
        ] {
            // Two empty shards are one key: at up to three workers, one unit.
            for position in [3, 5] {
                clients[position] = Client::new(100 + position, Dataset::empty(6, 3));
            }
            let refs: Vec<&Client> = clients.iter().collect();
            for backend in [
                ExecutionBackend::Sequential,
                ExecutionBackend::Parallel,
                ExecutionBackend::Deadline,
                ExecutionBackend::Streaming(StreamingParams::new(8)),
            ] {
                for cap in CAPS {
                    let err = backend
                        .executor_with_workers(cap)
                        .run_round(&refs, &m, &c, 0)
                        .unwrap_err();
                    assert!(
                        matches!(&err, FlError::InvalidConfig { what } if what.contains("client 103")),
                        "{backend:?}, cap {cap:?}, shared {}: {err}",
                        c.feature_cache
                    );
                }
            }
        }
    }

    #[test]
    fn shard_units_group_by_key_cap_their_size_and_go_out_largest_first() {
        // Keys in a scrambled participant order; a key's work is its shard
        // size, the same for each of its members.
        for (n, distinct) in [
            (1, 1),
            (2, 1),
            (8, 3),
            (64, 1),
            (64, 5),
            (64, 64),
            (400, 100),
        ] {
            let keys: Vec<usize> = (0..n).map(|p| (p * 7 + p / 3) % distinct).collect();
            let work: Vec<usize> = keys.iter().map(|&key| 1 + key * 37 % 101).collect();
            for workers in [1, 2, 3, 7] {
                let units = shard_units(&keys, &work, workers);
                let case = format!("{n} clients, {distinct} keys, {workers} workers");
                let mut seen: Vec<usize> = units.concat();
                seen.sort_unstable();
                assert_eq!(
                    seen,
                    (0..n).collect::<Vec<_>>(),
                    "{case}: each position once"
                );
                let cap = n.div_ceil(2 * workers);
                for unit in &units {
                    assert!(unit.iter().all(|&p| keys[p] == keys[unit[0]]), "{case}");
                    assert!(unit.windows(2).all(|w| w[0] < w[1]), "{case}");
                    assert!(unit.len() <= cap, "{case}: {} above {cap}", unit.len());
                }
                let unit_work: Vec<usize> = units
                    .iter()
                    .map(|unit| unit.iter().map(|&p| work[p]).sum())
                    .collect();
                assert!(unit_work.windows(2).all(|w| w[0] >= w[1]), "{case}");
                assert!(units.len() >= workers.min(n), "{case}: a worker left idle");
            }
        }
        // One shard, 64 clients: still work for both of two workers.
        assert!(shard_units(&[0; 64], &[50; 64], 2).len() >= 2);
    }

    #[test]
    fn a_panicking_client_is_re_raised_and_the_executor_stays_usable() {
        let clients = mixed_cohort(3);
        let refs: Vec<&Client> = clients.iter().collect();
        let m = model();
        let c = config();
        // A zero batch size panics inside every local update (`chunks(0)`).
        let panicking = config().with_batch_size(0);
        let reference = sequential().run_round(&refs, &m, &c, 0).unwrap();
        for backend in [
            ExecutionBackend::Parallel,
            ExecutionBackend::Streaming(StreamingParams::new(3)),
        ] {
            for cap in CAPS {
                let executor = backend.executor_with_workers(cap);
                let raised = catch_unwind(AssertUnwindSafe(|| {
                    executor.run_round(&refs, &m, &panicking, 0)
                }));
                assert!(raised.is_err(), "{backend:?}, cap {cap:?}");
                let outcome = executor.run_round(&refs, &m, &c, 0).unwrap();
                assert_eq!(
                    outcome.updates, reference.updates,
                    "{backend:?}, cap {cap:?}"
                );
            }
        }
    }

    #[test]
    fn hand_out_runs_every_position_once_on_no_more_threads_than_the_cap() {
        for cap in [2, 3, 7] {
            // A runner's state: the thread behind each call it made.
            let mut states = vec![Vec::new(); cap];
            let mut results = hand_out(40, &mut states, |calls, position| {
                calls.push(std::thread::current().id());
                position * 10
            });
            results.sort_unstable();
            assert_eq!(results, (0..40).map(|p| p * 10).collect::<Vec<_>>());
            let calls: usize = states.iter().map(Vec::len).sum();
            assert_eq!(calls, 40, "cap {cap}");
            assert!(
                states
                    .iter()
                    .all(|calls| calls.iter().all(|t| *t == calls[0])),
                "cap {cap}: a state stays with the runner that took it"
            );
            let threads: HashSet<_> = states.iter().flatten().collect();
            assert!(threads.len() <= cap, "cap {cap}");
        }
    }

    #[test]
    fn hand_out_puts_a_second_worker_to_work_when_the_host_has_one() {
        if pool::hardware_threads() < 2 {
            return;
        }
        // Forced, not probable: the first job handed out refuses to finish
        // until a job has been entered on another thread, which can only be
        // a second runner taking the next entry.
        let entered: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        let another_entered = Condvar::new();
        hand_out(4, &mut [(); 2], |(), position| {
            let mut threads = entered.lock().unwrap();
            threads.insert(std::thread::current().id());
            another_entered.notify_all();
            if position == 0 {
                let (_threads, wait) = another_entered
                    .wait_timeout_while(threads, Duration::from_secs(30), |t| t.len() < 2)
                    .unwrap();
                assert!(!wait.timed_out(), "no second runner took a job within 30 s");
            }
        });
    }

    #[test]
    fn deadline_executor_with_neutral_knobs_matches_sequential_bit_for_bit() {
        let clients: Vec<Client> = (0..5).map(|id| client(id, 10 + id)).collect();
        let refs: Vec<&Client> = clients.iter().collect();
        let m = model();
        let c = config(); // uniform heterogeneity, infinite deadline
        let reference = sequential().run_round(&refs, &m, &c, 0).unwrap();
        let deadline = inline(ExecutionBackend::Deadline)
            .run_round(&refs, &m, &c, 0)
            .unwrap();
        assert_eq!(reference.updates, deadline.updates);
        assert_eq!(reference.drops, deadline.drops);
        // One fresh timing entry per update, wall = slowest device.
        assert_eq!(reference.timing, deadline.timing);
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
        let deadline_par = pooled(ExecutionBackend::Deadline)
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
        let outcome = pooled(ExecutionBackend::Deadline)
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

        let outcome = pooled(ExecutionBackend::Deadline)
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
        let reference = sequential().run_round(&refs, &m, &c, 0).unwrap();
        let executor = async_inline(0);
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
            let executor = async_inline(bound);
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
        let c = config().with_rounds(3);
        let executor = async_inline(1);
        executor.run_round(&refs, &m, &c, 0).unwrap();
        let err = executor.run_round(&refs, &m, &c, 2).unwrap_err();
        assert!(matches!(err, FlError::InvalidConfig { .. }));
        // Round 0 resets the clock, so a fresh run on the same executor works.
        executor.run_round(&refs, &m, &c, 0).unwrap();
        executor.run_round(&refs, &m, &c, 1).unwrap();
        assert_eq!(
            executor.backend,
            ExecutionBackend::Async { max_staleness: 1 }
        );
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
        let executor = async_inline(1);
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
        let reference = sequential().run_round(&refs, &m, &c, 0).unwrap();
        // K = cohort size, steady arrivals, staleness bound 0: one full
        // synchronous round.
        let executor = streaming_inline(StreamingParams::new(5));
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
            .with_rounds(2)
            .with_heterogeneity(HeterogeneityModel::two_tier())
            .with_seed(3);
        let executor = streaming_inline(StreamingParams::new(4));
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

    /// Aggregates `outcome` into `global` as the simulation would, so that
    /// successive model versions differ in θ.
    fn advance(global: &mut BlockNet, outcome: &RoundOutcome, round: usize, c: &FlConfig) {
        let theta = crate::Server::new()
            .aggregate_stale(&outcome.updates, &outcome.update_staleness(), round)
            .unwrap();
        global.set_trainable_vector(c.freeze, &theta).unwrap();
    }

    #[test]
    fn a_streaming_run_trains_only_the_dispatches_it_flushes() {
        // EDS over a shared registry: every local update looks its shard's
        // scores up exactly once, so the score tier counts the updates run.
        let c = shared_config()
            .with_rounds(4)
            .with_heterogeneity(HeterogeneityModel::two_tier())
            .with_seed(3);
        for cap in [Some(1), Some(2)] {
            let clients = shared_cohort(8);
            let refs: Vec<&Client> = clients.iter().collect();
            let registry = clients[0].feature_cache().registry();
            // A buffer of 4 against 8 arrivals a round: the backlog grows.
            let executor =
                ExecutionBackend::Streaming(StreamingParams::new(4)).executor_with_workers(cap);
            let mut global = model();
            let (mut aggregated, mut arrivals, mut in_flight) = (0, 0, 0);
            for round in 0..4 {
                let outcome = executor.run_round(&refs, &global, &c, round).unwrap();
                let flush = outcome.timing.as_ref().unwrap().flush.clone().unwrap();
                aggregated += outcome.updates.len();
                arrivals += flush.arrivals;
                in_flight = flush.remaining;
                advance(&mut global, &outcome, round, &c);
            }
            let scored = registry.score_stats();
            assert_eq!(scored.served + scored.computed, aggregated, "cap {cap:?}");
            assert!(
                in_flight > 0,
                "cap {cap:?}: the run ends with dispatches in flight"
            );
            assert_eq!(arrivals, aggregated + in_flight, "cap {cap:?}");
        }
    }

    #[test]
    fn a_client_error_surfaces_at_the_flush_that_aggregates_its_update() {
        // Eight clients, a buffer of four. Client 7 holds by far the most
        // rows, so its round-0 dispatch is the slowest and is carried. A
        // shard of the wrong width cannot train, and the durations the
        // flush decision reads do not depend on the width.
        let m = model();
        let c = config()
            .with_rounds(8)
            .with_heterogeneity(HeterogeneityModel::two_tier())
            .with_seed(3);
        let cohort = |width: usize| -> Vec<Client> {
            (0..8)
                .map(|id| match id {
                    7 => Client::new(id, data_of_width(id, 200, width)),
                    _ => client(id, 10 + id),
                })
                .collect()
        };
        let valid = cohort(6);
        let refs: Vec<&Client> = valid.iter().collect();
        let executor = streaming_inline(StreamingParams::new(4));
        let mut reference = Vec::new();
        let flush_round = (0..8)
            .find(|&round| {
                let outcome = executor.run_round(&refs, &m, &c, round).unwrap();
                let flushed = outcome.updates.iter().any(|u| u.client_id == 7);
                reference.push(outcome);
                flushed
            })
            .expect("client 7's first dispatch flushes within eight rounds");
        assert!(flush_round >= 1, "client 7's first dispatch is carried");

        let broken = cohort(5);
        let expected = broken[7].local_update(&m, &c, 0).unwrap_err();
        let refs: Vec<&Client> = broken.iter().collect();
        let executor = streaming_inline(StreamingParams::new(4));
        for (round, reference) in reference.iter().enumerate().take(flush_round) {
            let outcome = executor.run_round(&refs, &m, &c, round).unwrap();
            assert_eq!(&outcome, reference, "round {round}");
        }
        let err = executor.run_round(&refs, &m, &c, flush_round).unwrap_err();
        assert_eq!(err.to_string(), expected.to_string());
    }

    #[test]
    fn the_clock_holds_one_snapshot_per_version_the_window_or_a_dispatch_that_can_still_flush_needs(
    ) {
        let clients: Vec<Client> = (0..8).map(|id| client(id, 10 + id)).collect();
        let refs: Vec<&Client> = clients.iter().collect();
        let rounds = 6;
        let c = config()
            .with_rounds(rounds)
            .with_heterogeneity(HeterogeneityModel::two_tier())
            .with_seed(3);
        for max_staleness in [0, 2] {
            let case = format!("max_staleness {max_staleness}");
            let params = StreamingParams::new(4).with_max_staleness(max_staleness);
            let executor = streaming_inline(params);
            let mut global = model();
            let mut thetas = Vec::new();
            // Per round: the versions held after it, and the older versions
            // its flush trained.
            let (mut held, mut trained) = (Vec::new(), Vec::new());
            let mut backlog = Vec::new();
            let (mut shared_a_snapshot, mut dropped_a_pending_snapshot) = (false, false);
            for round in 0..rounds {
                thetas.push(global.trainable_vector(c.freeze));
                let outcome = executor.run_round(&refs, &global, &c, round).unwrap();
                let lags = outcome.update_staleness().into_iter().filter(|&s| s > 0);
                trained.push(lags.map(|s| round - s).collect::<HashSet<_>>());
                advance(&mut global, &outcome, round, &c);
                let clock = executor.clock.lock().unwrap();
                let flushes = rounds - round - 1;
                let times: Vec<_> = clock.pending.iter().map(|p| p.time).collect();
                let reached = clock::reachable(&times, clock.opening(round + 1), 4, flushes);
                let reachable_versions: Vec<usize> = clock
                    .pending
                    .iter()
                    .zip(&reached)
                    .filter_map(|(p, &reached)| reached.then_some(p.version))
                    .collect();
                let mut expected: Vec<usize> = (0..=round)
                    .filter(|v| flushes > 0 && v + max_staleness > round)
                    .chain(reachable_versions.iter().copied())
                    .collect();
                expected.sort_unstable();
                expected.dedup();
                let versions: Vec<usize> = clock.history().iter().map(|(v, _)| *v).collect();
                assert_eq!(versions, expected, "{case}, after round {round}");
                for (version, snapshot) in clock.history() {
                    assert_eq!(
                        snapshot.theta, thetas[*version],
                        "{case}, version {version}"
                    );
                }
                shared_a_snapshot |= reachable_versions.iter().collect::<HashSet<_>>().len()
                    < reachable_versions.len();
                // The entry stays (the flush record counts it); only its
                // snapshot goes.
                dropped_a_pending_snapshot |=
                    flushes > 0 && clock.pending.iter().any(|p| !versions.contains(&p.version));
                backlog.push(clock.pending.len());
                held.push(versions);
            }
            // Every older version a later flush trained was held until then.
            for (round, versions) in held.iter().enumerate() {
                for later in &trained[round + 1..] {
                    for version in later.iter().filter(|&&v| v <= round) {
                        assert!(
                            versions.contains(version),
                            "{case}: version {version} after round {round}"
                        );
                    }
                }
            }
            assert!(
                backlog[rounds - 1] > backlog[0],
                "{case}: the backlog grows"
            );
            assert!(
                held[rounds - 1].is_empty(),
                "{case}: the last round leaves no snapshot"
            );
            assert!(
                dropped_a_pending_snapshot,
                "{case}: a round before the last drops a pending dispatch's snapshot"
            );
            assert!(
                shared_a_snapshot,
                "{case}: dispatches share a version's snapshot"
            );
        }
    }

    #[test]
    fn a_clock_keeping_plan_refuses_a_round_past_the_run_before_any_work() {
        let clients: Vec<Client> = (0..3).map(|id| client(id, 10)).collect();
        let refs: Vec<&Client> = clients.iter().collect();
        // A shard no model of width 6 can read: any round that trains it errs.
        let unreadable = Client::new(3, data_of_width(3, 10, 5));
        let m = model();
        let c = config().with_rounds(2);
        for backend in [
            ExecutionBackend::Streaming(StreamingParams::new(2)),
            ExecutionBackend::Async { max_staleness: 2 },
        ] {
            let executor = inline(backend);
            for round in 0..2 {
                executor.run_round(&refs, &m, &c, round).unwrap();
            }
            for executor in [executor, inline(backend)] {
                let err = executor.run_round(&[&unreadable], &m, &c, 2).unwrap_err();
                assert!(
                    matches!(&err, FlError::InvalidConfig { what } if what.contains("2-round run")),
                    "{backend:?}: {err}"
                );
            }
        }
        // A plan that keeps no clock runs any round.
        for backend in [
            ExecutionBackend::Sequential,
            ExecutionBackend::Parallel,
            ExecutionBackend::Deadline,
            ExecutionBackend::Async { max_staleness: 0 },
        ] {
            inline(backend).run_round(&refs, &m, &c, 2).unwrap();
        }
    }

    #[test]
    fn streaming_timeout_flush_can_close_an_empty_round() {
        let clients: Vec<Client> = (0..5).map(|id| client(id, 10)).collect();
        let refs: Vec<&Client> = clients.iter().collect();
        let m = model();
        let c = config().with_rounds(2);
        // Timer far below any device duration and a buffer nobody can fill:
        // the flush fires on the timer with nothing completed yet.
        let params = StreamingParams::new(100).with_flush_seconds(1e-12);
        let executor = streaming_inline(params);
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
        let executor = streaming_inline(StreamingParams::new(64));
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
            streaming_inline(params)
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
        let c = config().with_rounds(3);
        let executor = streaming_inline(StreamingParams::new(2));
        executor.run_round(&refs, &m, &c, 0).unwrap();
        let err = executor.run_round(&refs, &m, &c, 2).unwrap_err();
        assert!(matches!(err, FlError::InvalidConfig { .. }));
        // Round 0 resets the clock (dropping any buffered updates).
        executor.run_round(&refs, &m, &c, 0).unwrap();
        executor.run_round(&refs, &m, &c, 1).unwrap();
        assert_eq!(
            executor.backend,
            ExecutionBackend::Streaming(StreamingParams::new(2))
        );
    }

    #[test]
    fn unvalidated_executor_parameters_are_typed_errors_not_panics() {
        let clients: Vec<Client> = (0..3).map(|id| client(id, 10)).collect();
        let refs: Vec<&Client> = clients.iter().collect();
        let m = model();
        let c = config();
        let invalid = |executor: Executor| {
            matches!(
                executor.run_round(&refs, &m, &c, 0),
                Err(FlError::InvalidConfig { .. })
            )
        };
        // Neither value has passed `FlConfig::validate`: the public
        // constructor takes them as they are.
        for backend in [
            ExecutionBackend::Sequential,
            ExecutionBackend::Parallel,
            ExecutionBackend::Deadline,
            ExecutionBackend::Async { max_staleness: 1 },
            ExecutionBackend::Streaming(StreamingParams::new(2)),
        ] {
            assert!(
                invalid(backend.executor_with_workers(Some(0))),
                "{backend:?}"
            );
        }
        assert!(invalid(streaming_inline(StreamingParams::new(0))));
        assert!(invalid(pooled(ExecutionBackend::Streaming(
            StreamingParams::new(2).with_flush_seconds(f64::NAN)
        ))));
    }

    #[test]
    fn a_synchronous_plan_keeps_no_state() {
        let clients = mixed_cohort(8);
        let refs: Vec<&Client> = clients.iter().collect();
        let m = model();
        let flaky = HeterogeneityModel::from_tiers(vec![
            crate::DeviceTier::new("fast", 0.5, 1.0),
            crate::DeviceTier::new("slow", 0.5, 0.25)
                .with_network(0.5, 0.5)
                .with_drop_probability(0.4),
        ]);
        let c = config().with_heterogeneity(flaky.clone()).with_seed(3);
        // The median prediction: `Deadline` drops late clients as well as
        // offline ones.
        let mut predictions: Vec<f64> = clients
            .iter()
            .map(|client| {
                let profile = flaky.profile_for(client.id(), c.seed);
                flaky.predicted_client_seconds(&profile, &m, client.num_samples(), &c)
            })
            .collect();
        predictions.sort_by(f64::total_cmp);
        let c = c.with_deadline(predictions[predictions.len() / 2]);
        let mut reasons = HashSet::new();
        for backend in [
            ExecutionBackend::Sequential,
            ExecutionBackend::Parallel,
            ExecutionBackend::Deadline,
        ] {
            let fresh = |round: usize| {
                backend
                    .executor_with_workers(Some(2))
                    .run_round(&refs, &m, &c, round)
                    .unwrap()
            };
            let executor = backend.executor_with_workers(Some(2));
            for round in [5, 2] {
                let outcome = executor.run_round(&refs, &m, &c, round).unwrap();
                reasons.extend(outcome.drops.iter().map(|d| format!("{:?}", d.reason)));
                assert_eq!(outcome, fresh(round), "{backend:?}, round {round}");
            }
            let poisoned = catch_unwind(AssertUnwindSafe(|| {
                let _guard = executor.clock.lock().unwrap();
                panic!("a round panics while holding the clock");
            }));
            assert!(poisoned.is_err() && executor.clock.is_poisoned());
            for round in [3, 0, 7] {
                let outcome = executor.run_round(&refs, &m, &c, round).unwrap();
                reasons.extend(outcome.drops.iter().map(|d| format!("{:?}", d.reason)));
                assert_eq!(
                    outcome,
                    fresh(round),
                    "{backend:?}, poisoned, round {round}"
                );
            }
        }
        let mut reasons: Vec<String> = reasons.into_iter().collect();
        reasons.sort();
        assert_eq!(reasons, ["MissedDeadline", "Offline"], "both drop reasons");
    }

    #[test]
    fn a_poisoned_event_clock_is_an_error_until_round_zero_resets_it() {
        let clients: Vec<Client> = (0..2).map(|id| client(id, 10)).collect();
        let refs: Vec<&Client> = clients.iter().collect();
        let m = model();
        let c = config().with_rounds(3);
        let executor = async_inline(1);
        executor.run_round(&refs, &m, &c, 0).unwrap();
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = executor.clock.lock().unwrap();
            panic!("a round panics while holding the clock");
        }));
        assert!(poisoned.is_err() && executor.clock.is_poisoned());
        assert!(matches!(
            executor.run_round(&refs, &m, &c, 1),
            Err(FlError::InvalidConfig { .. })
        ));
        // Round 0 overwrites the clock wholesale, so it may take the guard
        // back; the clock then counts rounds again.
        executor.run_round(&refs, &m, &c, 0).unwrap();
        assert!(matches!(
            executor.run_round(&refs, &m, &c, 2),
            Err(FlError::InvalidConfig { .. })
        ));
    }
}
