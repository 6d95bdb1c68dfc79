//! The traced run: `Simulation::run`'s round loop re-driven from the harness
//! through the simulator's public functions, with a span around each call.
//!
//! `fedft-core` records no real time of its own, so the only way to see
//! where a round goes without changing it is to make the same calls in the
//! same order from here. The loop below must stay a line-for-line mirror of
//! `Simulation::run_labelled`; the caller checks that every round's
//! accuracy, loss, participant and drop counts equal the untraced run's.
//!
//! `executor.run_round` is opaque from outside. To see inside it the harness
//! notes, per round, who trained and on which θ (`replay.record` spans, whose
//! time is taken out of the traced run's wall time), and once the mirrored
//! run is over **replays** every round's client work one client at a time:
//! one frozen forward pass over the shard, the cache lookup, the θ snapshot,
//! `Client::local_update` and the selection scoring. Replays use a second
//! client pool with its own cache registry, and run after the mirrored run
//! rather than between its rounds, so that neither the cache counters nor
//! the timings of the mirrored run are disturbed by them.

use crate::trace::Tracer;
use crate::workloads::Inputs;
use fedft_core::{
    CacheStats, Client, ClientPool, ClientUpdate, FlError, ParticipationModel, RoundOutcome,
    SelectionContext, Server,
};
use fedft_data::Dataset;
use fedft_nn::{BlockNet, ParamVector};
use std::sync::Arc;

/// What one mirrored round must have in common with the untraced run.
#[derive(Debug, Clone, PartialEq)]
pub struct MirrorRound {
    pub test_accuracy: f32,
    pub test_loss: f32,
    pub participants: usize,
    pub dropped: usize,
}

/// Everything the mirrored run yields besides its spans.
#[derive(Debug)]
pub struct MirrorRun {
    pub rounds: Vec<MirrorRound>,
    /// Cache counters of the mirrored run's own pool (replays excluded).
    pub cache: CacheStats,
    /// Samples the selection replays kept, and samples they chose from.
    pub kept: usize,
    pub available: usize,
    /// Replays whose update differs from the executor's (compared when no
    /// update of the round was stale) or whose selection kept another
    /// number of samples than the update reports.
    pub replay_mismatches: usize,
    /// One real update, for the wire-codec probe.
    pub sample_update: Option<ClientUpdate>,
}

/// What the replay of one round needs: the θ the round trained on, who
/// trained, and, when the executor's updates are comparable with a replay
/// on that θ, their training loss and selected count.
struct RoundToReplay {
    theta: ParamVector,
    trained: Vec<usize>,
    expected: Option<Vec<(u32, usize)>>,
}

impl RoundToReplay {
    fn record(
        sampled: &[usize],
        outcome: &RoundOutcome,
        global: &BlockNet,
        inputs: &Inputs,
    ) -> Self {
        // Under the streaming backend a client may have trained on an older
        // θ than `global` and the updates returned are the flushed buffer,
        // not this round's cohort: the replay costs the same, but there is
        // nothing to compare it with.
        let comparable = outcome.timing.as_ref().is_none_or(|t| t.flush.is_none())
            && outcome.update_staleness().iter().all(|&s| s == 0);
        RoundToReplay {
            theta: global.trainable_vector(inputs.config.freeze),
            trained: sampled
                .iter()
                .copied()
                .filter(|id| !outcome.drops.iter().any(|d| d.client_id == *id))
                .collect(),
            expected: comparable.then(|| {
                let fingerprint = |u: &ClientUpdate| (u.train_loss.to_bits(), u.selected_samples);
                outcome.updates.iter().map(fingerprint).collect()
            }),
        }
    }
}

/// Runs the mirrored round loop over `inputs`, then the replays, recording
/// both into `tracer`.
pub fn traced_run(inputs: &Inputs, tracer: &mut Tracer) -> Result<MirrorRun, FlError> {
    let (data, config) = (&inputs.data, &inputs.config);
    if config.tier_freeze.is_some() {
        return Err(FlError::InvalidConfig {
            what: "the traced mirror does not cover per-tier freeze levels".into(),
        });
    }
    let run = tracer.open("simulation.run", None);
    let pool = tracer.leaf("simulation.pool_build", None, None, || {
        ClientPool::build(data, config)
    })?;

    let prepare = tracer.open("simulation.prepare", None);
    let clients = pool.clients();
    let participation = ParticipationModel::new(config.participation)?;
    let server = Server::new();
    let executor = config
        .execution
        .executor_with_workers(config.worker_threads);
    let mut global = inputs.model.clone();
    let hetero = &config.heterogeneity;
    let tier_compute: Vec<f64> = (0..clients.len())
        .map(|id| hetero.profile_for(id, config.seed).tier.compute)
        .collect();
    let shards: Vec<Arc<Dataset>> = clients.iter().map(|c| Arc::clone(c.shard())).collect();
    let client_selection = config.client_selection.policy(&tier_compute, &shards);
    tracer.close(prepare);

    let mut out = MirrorRun {
        rounds: Vec::with_capacity(config.rounds),
        cache: CacheStats::default(),
        kept: 0,
        available: 0,
        replay_mismatches: 0,
        sample_update: None,
    };
    let mut to_replay = Vec::with_capacity(config.rounds);
    for round in 0..config.rounds {
        let at = Some(round);
        let round_span = tracer.open("simulation.round", at);
        let ids = tracer.leaf("participation.sample", at, None, || {
            client_selection.sample_round(&participation, round, config.seed)
        });
        let participants: Vec<&Client> = ids.iter().map(|&id| &clients[id]).collect();
        let outcome = tracer.leaf("executor.run_round", at, None, || {
            executor.run_round(&participants, &global, config, round)
        })?;
        to_replay.push(tracer.leaf("replay.record", at, None, || {
            RoundToReplay::record(&ids, &outcome, &global, inputs)
        }));

        let updates = &outcome.updates;
        let staleness = outcome.update_staleness();
        let is_flush = outcome.timing.as_ref().is_some_and(|t| t.flush.is_some());
        if !updates.is_empty() {
            let theta = tracer.leaf("server.aggregate", at, None, || {
                if is_flush {
                    server.aggregate_buffered(updates, &staleness, round)
                } else {
                    server.aggregate_stale(updates, &staleness, round)
                }
            })?;
            tracer.leaf("nn.block.set_theta", at, None, || {
                global.set_trainable_vector(config.freeze, &theta)
            })?;
        }
        let test = data.test();
        let (test_accuracy, test_loss) = tracer.leaf("nn.block.eval", at, None, || {
            let accuracy = global.evaluate_accuracy(test.features(), test.labels())?;
            let loss = global.evaluate_loss(test.features(), test.labels())?;
            Ok::<_, FlError>((accuracy, loss))
        })?;
        // The simulation snapshots the cache counters every round.
        out.cache = pool.cache_stats();
        out.rounds.push(MirrorRound {
            test_accuracy,
            test_loss,
            participants: updates.len(),
            dropped: outcome.dropped(),
        });
        if out.sample_update.is_none() {
            out.sample_update = updates.first().cloned();
        }
        tracer.close(round_span);
    }
    tracer.close(run);

    let replay = tracer.open("replay", None);
    let replay_pool = ClientPool::build(data, config)?;
    for (round, recorded) in to_replay.iter().enumerate() {
        global.set_trainable_vector(config.freeze, &recorded.theta)?;
        replay_round(
            tracer,
            replay_pool.clients(),
            recorded,
            &global,
            inputs,
            round,
            &mut out,
        )?;
    }
    tracer.close(replay);
    Ok(out)
}

/// Replays, one client at a time, the work of every client the executor
/// trained in `round`, on `global` as it was when that round started.
fn replay_round(
    tracer: &mut Tracer,
    replay_clients: &[Client],
    recorded: &RoundToReplay,
    global: &BlockNet,
    inputs: &Inputs,
    round: usize,
    out: &mut MirrorRun,
) -> Result<(), FlError> {
    let config = &inputs.config;
    let policy = config.selection.policy();
    let at = Some(round);
    for (position, &id) in recorded.trained.iter().enumerate() {
        let client = &replay_clients[id];
        let who = Some(id);
        let freeze = config.freeze_for_client(id);
        let features = client.data().features();
        let labels = client.data().labels();

        let mut boundary = Arc::new(tracer.leaf("nn.block.forward_frozen", at, who, || {
            global.forward_frozen(freeze, features)
        })?);
        if config.feature_cache && freeze.frozen_blocks() > 0 {
            let registry = client.feature_cache().registry();
            let misses_before = registry.stats().misses;
            boundary = tracer.leaf("cache.lookup_hit", at, who, || {
                client
                    .feature_cache()
                    .get_or_build(global, freeze, features)
            })?;
            if registry.stats().misses > misses_before {
                tracer.rename_last("cache.build_miss");
            }
        }
        let mut suffix = tracer.leaf("nn.block.trainable_suffix", at, who, || {
            global.trainable_suffix(freeze)
        });
        let update = tracer.leaf("client.local_update", at, who, || {
            client.local_update(global, config, round)
        })?;
        let kept = tracer.leaf("selection.score", at, who, || {
            let mut ctx = SelectionContext::with_boundary(
                &mut suffix,
                &boundary,
                labels,
                round,
                id,
                config.seed,
            );
            policy.select(&mut ctx)
        })?;

        out.kept += kept.len();
        out.available += labels.len();
        let replayed = (update.train_loss.to_bits(), update.selected_samples);
        let same_as_executor = recorded
            .expected
            .as_ref()
            .is_none_or(|expected| expected.get(position) == Some(&replayed));
        if kept.len() != update.selected_samples || !same_as_executor {
            out.replay_mismatches += 1;
        }
    }
    Ok(())
}
