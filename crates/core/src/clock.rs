//! The event clock of the buffered-flush round body, and the flush decision
//! it runs on.
//!
//! [`decide_flush`] is the whole rule that closes a round — FedBuff's `K`
//! and `T` over the buffered dispatches' completion times — as a pure
//! function of plain numbers: no model, no [`Client`], no pool. The executor
//! calls it once a round, and the clock calls it again ([`reachable`]) to
//! bound what the rest of the run can still flush, so the bound and the
//! flush share one body.
//!
//! [`EventClock`] is the timeline a plan that carries state between rounds
//! keeps: when each model version opened, when each device is free, the
//! buffer of dispatches still awaiting their flush, and the `θ` snapshots of
//! the older versions those dispatches (or the next round's) will train on.

use crate::client::{Client, ThetaSnapshot};
use crate::executor::{FlushTrigger, StreamingParams};
use crate::{FlError, Result};
use std::collections::HashMap;

/// When a buffered dispatch started and how long it runs: what the flush
/// decision reads of it.
///
/// Times are kept as offsets relative to the *dispatch round's* opening
/// (not absolute): entries dispatched in the flushing round then enter the
/// flush arithmetic without ever adding and re-subtracting the round's
/// absolute opening time, which keeps a round whose cohort all starts at its
/// opening exactly as long as its slowest duration. An entry dispatched in
/// an earlier round is rebased through the gap between the two openings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DispatchTime {
    /// Simulated opening time of the dispatch round.
    pub(crate) round_open: f64,
    /// Dispatch time relative to the dispatch round's opening.
    pub(crate) offset: f64,
    /// Simulated training + transfer duration.
    pub(crate) duration: f64,
}

impl DispatchTime {
    /// The gap from `open`, a later round's opening, back to the dispatch
    /// round's: exactly `0.0` in the dispatch round itself.
    fn rebase(&self, open: f64) -> f64 {
        self.round_open - open
    }

    /// The dispatch time relative to `open`.
    pub(crate) fn start(&self, open: f64) -> f64 {
        self.rebase(open) + self.offset
    }

    /// The completion time relative to `open`.
    fn completion(&self, open: f64) -> f64 {
        self.rebase(open) + (self.offset + self.duration)
    }
}

/// What [`decide_flush`] decided.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FlushDecision {
    /// Whether each buffered dispatch is flushed, parallel to the buffer:
    /// every one completed by the round's wall time.
    pub(crate) flushed: Vec<bool>,
    /// What fired the flush.
    pub(crate) trigger: FlushTrigger,
    /// The round's simulated wall time, from its opening to the flush.
    pub(crate) round_wall_seconds: f64,
}

/// Decides the flush of a round that opened at `open`, over the `buffer` of
/// dispatches carried in and newly made.
///
/// The flush fires at the `buffer_size`-th earliest buffered completion, at
/// `flush_seconds` after the opening (an infinite timer never fires), or —
/// when neither can fire — at the last completion in flight. Ties go to the
/// buffer condition. The server cannot flush before the round opened
/// (updates that completed even earlier are simply included), and time never
/// runs back. `deadline` is the deadline of a plan that drops late clients,
/// set only when the round dropped someone: a server that drops late clients
/// cannot tell an offline device from a straggler, so after any drop under
/// a finite deadline it waited the deadline out. Every dispatch completed by
/// the wall time flushes.
pub(crate) fn decide_flush(
    buffer: &[DispatchTime],
    open: f64,
    buffer_size: usize,
    flush_seconds: f64,
    deadline: Option<f64>,
) -> FlushDecision {
    let completions: Vec<f64> = buffer.iter().map(|d| d.completion(open)).collect();
    let mut sorted = completions.clone();
    sorted.sort_by(f64::total_cmp);
    let buffer_ready_at = buffer_size
        .checked_sub(1)
        .and_then(|k| sorted.get(k))
        .copied();
    let timeout_at = flush_seconds.is_finite().then_some(flush_seconds);
    let (flush_offset, trigger) = match (buffer_ready_at, timeout_at) {
        (Some(b), Some(t)) if t < b => (t, FlushTrigger::Timeout),
        (Some(b), _) => (b, FlushTrigger::BufferFull),
        (None, Some(t)) => (t, FlushTrigger::Timeout),
        (None, None) => (sorted.last().copied().unwrap_or(0.0), FlushTrigger::Drain),
    };
    let round_wall_seconds = match deadline {
        Some(deadline) if deadline.is_finite() => deadline,
        _ => flush_offset.max(0.0),
    };
    FlushDecision {
        flushed: completions
            .iter()
            .map(|&c| c <= round_wall_seconds)
            .collect(),
        trigger,
        round_wall_seconds,
    }
}

/// Which of the `pending` dispatches one of the next `flushes` flushes of a
/// `buffer_size`-deep buffer can still take, the first of them in a round
/// that opens at `open`; parallel to `pending`.
///
/// Let `T₀` be `open` and `Tⱼ` the wall time of [`decide_flush`] over the
/// pending dispatches left after `Tⱼ₋₁`, with the timer off: the
/// `buffer_size`-th smallest completion strictly after `Tⱼ₋₁`, or — when
/// fewer are left — the last, so that all of them are reachable. Every real
/// flush fires at or before its `Tⱼ`: its timer only fires earlier, new
/// arrivals only add completions, and a plan that keeps a clock has no
/// deadline. A dispatch completing after `Tₙ` is therefore never trained.
/// Every comparison is made in offsets from `open`, the opening the next
/// flush compares in, and ties are kept, so the next flush's bound is exact.
/// Later flushes compare from later openings, where two completions an ulp
/// apart could round together; a dispatch dropped that way would make its
/// flush fail with the missing-snapshot error, never train a wrong version.
pub(crate) fn reachable(
    pending: &[DispatchTime],
    open: f64,
    buffer_size: usize,
    flushes: usize,
) -> Vec<bool> {
    let mut reached = vec![false; pending.len()];
    let mut left: Vec<usize> = (0..pending.len()).collect();
    for _ in 0..flushes {
        if left.is_empty() {
            break;
        }
        let times: Vec<DispatchTime> = left.iter().map(|&i| pending[i]).collect();
        let flush = decide_flush(&times, open, buffer_size, f64::INFINITY, None);
        let mut unflushed = Vec::with_capacity(left.len());
        for (&i, &flushed) in left.iter().zip(&flush.flushed) {
            if flushed {
                reached[i] = true;
            } else {
                unflushed.push(i);
            }
        }
        left = unflushed;
    }
    reached
}

/// One dispatch queued in the event clock's buffer, in flight or completed:
/// what its flush needs to train it — the client, the version it downloaded
/// and its dispatch round — and to decide when it completes.
#[derive(Debug)]
pub(crate) struct PendingUpdate {
    /// The dispatched client: an id and two shared handles.
    pub(crate) client: Client,
    /// Round the client was sampled in (its dispatch round).
    pub(crate) dispatch_round: usize,
    /// Dispatch index within its round, for deterministic flush ordering.
    pub(crate) position: usize,
    /// Model version the client downloaded.
    pub(crate) version: usize,
    /// When it started and how long it runs.
    pub(crate) time: DispatchTime,
}

/// The simulated timeline of a plan that carries state between rounds,
/// advanced once per round.
///
/// Version `v` is the global model after `v` aggregations; `version_open[v]`
/// is the simulated time at which it became available (`version_open[0] =
/// 0.0`). The server-side buffer holds *dispatches*, not trained updates: a
/// [`PendingUpdate`] names its client and the version it downloaded, and is
/// trained by the flush that aggregates it. The clock therefore keeps a
/// **θ snapshot** of every version that a later round of the run may still
/// dispatch on (the staleness window) or that a buffered dispatch which can
/// still flush names ([`reachable`]) — one per version, however many
/// dispatches share it, and none once the run's last round has closed. A
/// dispatch that can no longer flush keeps its buffer entry (the flush
/// record counts it) but not its snapshot. Because only the trainable part
/// is ever aggregated, the frozen backbone `ϕ` is identical across versions,
/// so an older version is the current model as backbone with the
/// snapshotted θ ([`ThetaSnapshot`]): an `O(|θ|)` snapshot per version, and
/// no model built from it at a flush — a dispatch's suffix is refreshed
/// straight from the snapshot, mirroring what a real client downloads. The
/// snapshot keeps the global model's [`fedft_nn::BlockNet::parameter_stamp`],
/// so the version's scores are shared under the stamp they were first
/// computed with.
#[derive(Debug, Default)]
pub(crate) struct EventClock {
    /// Simulated opening time of every global-model version so far.
    version_open: Vec<f64>,
    /// Retained `(version, θ snapshot)` pairs, ascending by version: the
    /// versions inside the next round's staleness window and those a
    /// pending entry that can still flush names.
    history: Vec<(usize, ThetaSnapshot)>,
    /// Absolute simulated time until which each client's device is busy
    /// training a previously dispatched round.
    busy_until: HashMap<usize, f64>,
    /// The round index the executor expects next (rounds must be executed
    /// in order — the clock is cumulative).
    next_round: usize,
    /// The server-side buffer of dispatches still awaiting their flush; a
    /// draining round (every `Async` round) leaves it empty.
    pub(crate) pending: Vec<PendingUpdate>,
}

impl EventClock {
    /// Opens `round` of a run of `rounds` on the clock and returns its
    /// simulated opening time. Round 0 resets the clock (dropping any
    /// buffered dispatches and snapshots of a previous run); any other round
    /// must be the one the clock expects next. A round past the run is
    /// refused: the clock keeps snapshots only for flushes inside it. The
    /// round's own version is the model passed in, so it needs no snapshot
    /// until [`EventClock::close_round`].
    pub(crate) fn open_round(
        &mut self,
        executor: &'static str,
        round: usize,
        rounds: usize,
    ) -> Result<f64> {
        if round >= rounds {
            return Err(FlError::InvalidConfig {
                what: format!(
                    "{executor} executor got round {round} of a {rounds}-round run: \
                     event-clock rounds must lie inside the run"
                ),
            });
        }
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
        Ok(self.version_open[round])
    }

    /// Dispatches client `id`, sampled for `round`, which arrives
    /// `arrival_offset` seconds after `earliest_version` — the oldest
    /// version the staleness bound permits — opened and trains for
    /// `duration` seconds. It starts once it has arrived and finished any
    /// earlier dispatch, on the freshest version published by then; returns
    /// that absolute start time and the version.
    pub(crate) fn dispatch(
        &mut self,
        id: usize,
        round: usize,
        earliest_version: usize,
        arrival_offset: f64,
        duration: f64,
    ) -> (f64, usize) {
        let free_at = self.busy_until.get(&id).copied().unwrap_or(0.0);
        let dispatch_at = (self.version_open[earliest_version] + arrival_offset).max(free_at);
        self.busy_until.insert(id, dispatch_at + duration);
        // Dispatch never happens before `earliest_version` opens, so the
        // search cannot fail and staleness never exceeds the bound.
        let version = (earliest_version..=round)
            .rfind(|&v| self.version_open[v] <= dispatch_at)
            .unwrap_or(earliest_version);
        (dispatch_at, version)
    }

    /// The θ snapshot of an older `version`, if the clock holds one.
    pub(crate) fn snapshot(&self, version: usize) -> Option<&ThetaSnapshot> {
        self.history
            .iter()
            .find(|(v, _)| *v == version)
            .map(|(_, snapshot)| snapshot)
    }

    /// Closes `round` of a run of `rounds` after `round_wall` simulated
    /// seconds, publishing version `round + 1`, with `pending` the
    /// dispatches the flush left in the buffer. Keeps the θ snapshot of a
    /// version — `round`'s own, taken here by `snapshot`, included — only
    /// while a later round of the run may still dispatch on it (`round + 1 <
    /// rounds` and `round - v < max_staleness`, which cannot overflow at an
    /// unbounded `usize::MAX`) or a pending dispatch that one of the
    /// remaining `rounds - round - 1` flushes can still take names it
    /// ([`reachable`], from the next round's opening). At `max_staleness =
    /// 0` that is only carried versions; a round whose dispatches all flush
    /// snapshots nothing, and neither does the run's last round.
    pub(crate) fn close_round(
        &mut self,
        round: usize,
        round_wall: f64,
        pending: Vec<PendingUpdate>,
        params: &StreamingParams,
        rounds: usize,
        snapshot: impl FnOnce() -> ThetaSnapshot,
    ) {
        let next_open = self.version_open[round] + round_wall;
        let flushes = rounds - round - 1;
        let times: Vec<DispatchTime> = pending.iter().map(|p| p.time).collect();
        let reached = reachable(&times, next_open, params.buffer_size, flushes);
        let needed = |v: usize| {
            (flushes > 0 && round - v < params.max_staleness)
                || pending
                    .iter()
                    .zip(&reached)
                    .any(|(p, &reached)| reached && p.version == v)
        };
        self.history.retain(|&(v, _)| needed(v));
        if needed(round) {
            self.history.push((round, snapshot()));
        }
        self.pending = pending;
        self.version_open.push(next_open);
        self.next_round = round + 1;
    }
}

#[cfg(test)]
impl EventClock {
    /// The retained `(version, θ snapshot)` pairs, ascending by version.
    pub(crate) fn history(&self) -> &[(usize, ThetaSnapshot)] {
        &self.history
    }

    /// The simulated opening time of `version`.
    pub(crate) fn opening(&self, version: usize) -> f64 {
        self.version_open[version]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A dispatch of the round that opened at `round_open`, `offset` seconds
    /// after it, running `duration` seconds.
    fn at(round_open: f64, offset: f64, duration: f64) -> DispatchTime {
        DispatchTime {
            round_open,
            offset,
            duration,
        }
    }

    /// Dispatches at the opening of a round that opened at 0.0, one per
    /// duration.
    fn fresh(durations: &[f64]) -> Vec<DispatchTime> {
        durations.iter().map(|&d| at(0.0, 0.0, d)).collect()
    }

    fn flushed_positions(decision: &FlushDecision) -> Vec<usize> {
        (0..decision.flushed.len())
            .filter(|&i| decision.flushed[i])
            .collect()
    }

    #[test]
    fn a_tie_at_the_kth_completion_goes_to_the_buffer_and_flushes_every_tied_dispatch() {
        let buffer = fresh(&[3.0, 1.0, 2.0, 2.0, 5.0]);
        let decision = decide_flush(&buffer, 0.0, 3, 2.0, None);
        // The timer fires at 2.0, exactly when the third completion does.
        assert_eq!(decision.trigger, FlushTrigger::BufferFull);
        assert_eq!(decision.round_wall_seconds, 2.0);
        // K = 3 but four complete by then: ties are all taken.
        assert_eq!(flushed_positions(&decision), [1, 2, 3]);
        let decision = decide_flush(&buffer, 0.0, 2, f64::INFINITY, None);
        assert_eq!(
            (decision.trigger, decision.round_wall_seconds),
            (FlushTrigger::BufferFull, 2.0)
        );
        assert_eq!(flushed_positions(&decision), [1, 2, 3]);
    }

    #[test]
    fn a_timer_earlier_than_the_buffer_fires_first() {
        let buffer = fresh(&[3.0, 1.0, 2.0, 4.0]);
        let decision = decide_flush(&buffer, 0.0, 3, 1.5, None);
        assert_eq!(decision.trigger, FlushTrigger::Timeout);
        assert_eq!(decision.round_wall_seconds, 1.5);
        assert_eq!(flushed_positions(&decision), [1]);
        // A buffer nobody fills: the timer alone, even with nothing done.
        let decision = decide_flush(&buffer, 0.0, 10, 0.5, None);
        assert_eq!(decision.trigger, FlushTrigger::Timeout);
        assert!(flushed_positions(&decision).is_empty());
    }

    #[test]
    fn fewer_than_k_without_a_timer_drain_every_dispatch() {
        let buffer = fresh(&[3.0, 1.0, 2.0]);
        let decision = decide_flush(&buffer, 0.0, 4, f64::INFINITY, None);
        assert_eq!(decision.trigger, FlushTrigger::Drain);
        assert_eq!(decision.round_wall_seconds, 3.0);
        assert_eq!(flushed_positions(&decision), [0, 1, 2]);
        // An empty buffer drains at the opening.
        let empty = decide_flush(&[], 0.0, 4, f64::INFINITY, None);
        assert_eq!(
            (empty.trigger, empty.round_wall_seconds),
            (FlushTrigger::Drain, 0.0)
        );
        // A drain past a finite deadline, after a drop, lasts the deadline.
        let waited = decide_flush(&buffer, 0.0, usize::MAX, f64::INFINITY, Some(2.5));
        assert_eq!(
            (waited.trigger, waited.round_wall_seconds),
            (FlushTrigger::Drain, 2.5)
        );
        assert_eq!(flushed_positions(&waited), [1, 2]);
        let unbounded = decide_flush(&buffer, 0.0, usize::MAX, f64::INFINITY, Some(f64::INFINITY));
        assert_eq!(unbounded.round_wall_seconds, 3.0);
    }

    #[test]
    fn entries_are_rebased_across_two_openings() {
        // Version 1 opened at 10.0 and version 2 at 12.5; the flushing round
        // opens at 12.5. One dispatch from each of the two earlier rounds,
        // one of this round's.
        let buffer = [at(0.0, 9.0, 4.5), at(10.0, 1.0, 2.0), at(12.5, 0.25, 0.5)];
        let decision = decide_flush(&buffer, 12.5, 2, f64::INFINITY, None);
        // Completions (0.0 − 12.5) + (9.0 + 4.5) = 1.0, then 0.5 and 0.75
        // after the opening.
        let completions: Vec<f64> = buffer.iter().map(|d| d.completion(12.5)).collect();
        assert_eq!(completions, [1.0, 0.5, 0.75]);
        assert_eq!(decision.round_wall_seconds, 0.75);
        assert_eq!(flushed_positions(&decision), [1, 2]);
        assert_eq!(buffer[0].start(12.5), -3.5);
        // A completion before the opening flushes at the opening.
        let early = decide_flush(&[at(0.0, 0.0, 1.0)], 12.5, 1, f64::INFINITY, None);
        assert_eq!(early.round_wall_seconds, 0.0);
        assert_eq!(flushed_positions(&early), [0]);
        // The rebasing is a gap, then the dispatch's own sum: it is exactly
        // this round's completion when the gap is zero.
        let own = at(12.5, 0.1, 0.2);
        assert_eq!(own.completion(12.5).to_bits(), (0.1_f64 + 0.2).to_bits());
    }

    #[test]
    fn the_horizon_takes_k_completions_per_remaining_flush() {
        let pending = fresh(&[5.0, 1.0, 2.0, 4.0, 3.0, 6.0, 7.0]);
        let reach = |flushes| reachable(&pending, 0.0, 2, flushes);
        assert_eq!(reach(0), [false; 7], "the last round keeps nothing");
        // T₁ = 2.0, then T₂ = 4.0 (the second completion after T₁).
        assert_eq!(reach(1), [false, true, true, false, false, false, false]);
        assert_eq!(reach(2), [false, true, true, true, true, false, false]);
        // T₃ = 6.0; one is left, fewer than K: T₄ = ∞.
        assert_eq!(reach(3), [true, true, true, true, true, true, false]);
        assert_eq!(reach(4), [true; 7]);
        assert_eq!(reach(100), [true; 7]);
        // A deeper buffer than the pending set: everything is reachable at
        // once.
        assert_eq!(reachable(&pending, 0.0, 8, 1), [true; 7]);
    }

    #[test]
    fn a_pending_set_whose_kth_completion_ties_the_horizon_keeps_every_tied_dispatch() {
        // K = 2. T₁ = 2.0 takes both 2.0s and the 1.0. Strictly after T₁ the
        // second completion is 4.0, shared by three dispatches: T₂ = 4.0
        // keeps all three, and the 4.5 is out of reach.
        let pending = fresh(&[4.0, 2.0, 4.5, 4.0, 1.0, 2.0, 4.0]);
        assert_eq!(
            reachable(&pending, 0.0, 2, 2),
            [true, true, false, true, true, true, true]
        );
        // The same times rebased from an earlier opening: compared in the
        // next flush's offsets, the tie still holds.
        let rebased: Vec<DispatchTime> =
            pending.iter().map(|d| at(-3.0, 3.0, d.duration)).collect();
        assert_eq!(
            reachable(&rebased, 0.0, 2, 2),
            [true, true, false, true, true, true, true]
        );
    }

    #[test]
    fn the_horizon_counts_from_the_next_opening() {
        // Completions before the next opening flush at it, all of them,
        // however many exceed K.
        let pending = [
            at(0.0, 0.0, 9.0),
            at(0.0, 0.0, 9.5),
            at(0.0, 0.0, 9.75),
            at(0.0, 0.0, 11.0),
            at(0.0, 0.0, 12.0),
        ];
        assert_eq!(
            reachable(&pending, 10.0, 1, 1),
            [true, true, true, false, false]
        );
        assert_eq!(
            reachable(&pending, 10.0, 1, 2),
            [true, true, true, true, false]
        );
    }
}
