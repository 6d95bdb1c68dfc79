//! Table III + Figures 7–9 — the 100-client straggler scenario.
//!
//! Three straggler models are offered side by side, each on the
//! CIFAR-10-like and CIFAR-100-like worlds at two heterogeneity levels:
//!
//! * **Fixed-fraction** ([`lineup`] / [`run`]): FedAvg is run at three
//!   participation fractions (`fn` ∈ {100%, 20%, 10%}) to model stragglers
//!   dropping out under the heavy full-model workload, while the FedFT
//!   variants assume full participation thanks to their reduced workload.
//!   This mirrors the paper's Table III setup verbatim.
//! * **Emergent** ([`run_emergent`]): every method is nominally offered the
//!   full client pool, but the pool is a heterogeneous two-tier device mix
//!   running under a round deadline
//!   ([`fedft_core::ExecutionBackend::Deadline`]). Slow-tier clients that
//!   cannot fit the full-model round inside the deadline drop out *on their
//!   own* — "FedAvg loses stragglers, FedFT keeps them" becomes a result of
//!   the workload model instead of a configured fraction.
//! * **Async bounded-staleness** ([`run_async`]): the third answer to
//!   stragglers — neither shrink the pool nor drop the slow tier, but
//!   *overlap* rounds with [`fedft_core::ExecutionBackend::Async`]. The same
//!   two-tier mix is swept over `max_staleness` bounds; accuracy vs
//!   staleness (and the shrinking simulated wall clock, see
//!   [`crate::scenario::staleness_table`]) shows the freshness/throughput
//!   trade-off next to the other two lineups.
//!
//! The same runs provide the learning-efficiency points of Figure 7 and the
//! learning curves of Figures 8 and 9.

use crate::scenario::{RunSpec, Scenario};
use crate::setup::{self, World};
use fedft_core::{FlConfig, FlError, HeterogeneityModel, Method};
use fedft_data::FederatedDataset;
use fedft_nn::BlockNet;
use serde::{Deserialize, Serialize};

/// The Dirichlet concentrations of every Table III lineup.
const ALPHAS: [f64; 2] = [0.1, 0.5];

/// A named entry of the Table III lineup: a method plus the participation
/// fraction it runs with.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LineupEntry {
    /// The federated method.
    pub method: Method,
    /// Participation fraction `fn`.
    pub participation: f64,
}

impl LineupEntry {
    /// Label in the paper's Table III style.
    pub fn label(&self) -> String {
        if (self.participation - 1.0).abs() < 1e-12 {
            self.method.name()
        } else {
            format!(
                "{}, {:.0}% c.p.",
                self.method.name(),
                self.participation * 100.0
            )
        }
    }
}

/// The Table III lineup of methods.
pub fn lineup() -> Vec<LineupEntry> {
    let entry = |method, participation| LineupEntry {
        method,
        participation,
    };
    vec![
        entry(Method::FedAvgScratch, 1.0),
        entry(Method::FedAvg, 1.0),
        entry(Method::FedAvg, 0.2),
        entry(Method::FedAvg, 0.1),
        entry(Method::FedFtRds { pds: 0.1 }, 1.0),
        entry(Method::FedFtEds { pds: 0.1 }, 1.0),
        entry(Method::FedFtAll, 1.0),
        entry(Method::FedFtRds { pds: 0.5 }, 1.0),
        entry(Method::FedFtEds { pds: 0.5 }, 1.0),
    ]
}

/// Runs the fixed-fraction Table III lineup (`entries`) on one (task, α)
/// split of a world.
fn run_scenario(world: &World, alpha: f64, entries: &[LineupEntry]) -> Result<Scenario, FlError> {
    let profile = world.profile();
    Scenario::run(world, profile.clients_large, alpha, |_| {
        entries
            .iter()
            .map(|entry| {
                let base = setup::base_config(profile, profile.rounds_large)
                    .with_participation(entry.participation);
                RunSpec {
                    label: entry.label(),
                    ..RunSpec::method(world, entry.method, base)
                }
            })
            .collect()
    })
}

/// Runs the full Table III experiment on the [`setup::image_worlds`].
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run(worlds: &[World]) -> Result<Vec<Scenario>, FlError> {
    let entries = lineup();
    Scenario::grid(worlds, &ALPHAS, |world, alpha| {
        run_scenario(world, alpha, &entries)
    })
}

/// The emergent-straggler lineup: every method is offered the full pool and
/// the deadline decides who stays.
const EMERGENT_METHODS: [Method; 5] = [
    Method::FedAvg,
    Method::FedFtRds { pds: 0.1 },
    Method::FedFtEds { pds: 0.1 },
    Method::FedFtAll,
    Method::FedFtEds { pds: 0.5 },
];

/// Calibrates a round deadline from a reference configuration: the largest
/// predicted round time any client in `fed` needs under `reference`, times
/// `headroom`.
///
/// Calibrating against a FedFT configuration (with `headroom` slightly above
/// one) yields a deadline every device tier can meet for the reduced
/// workload while slow-tier clients overrun it for full-model FedAvg — the
/// emergent version of the paper's straggler setting.
fn calibrated_deadline(
    fed: &FederatedDataset,
    model: &BlockNet,
    reference: &FlConfig,
    headroom: f64,
) -> f64 {
    let slowest = reference
        .heterogeneity
        .predicted_times(fed, model, reference)
        .into_iter()
        .fold(0.0_f64, f64::max);
    slowest * headroom
}

/// Runs one (task, alpha) scenario with the emergent-straggler lineup: a
/// two-tier device mix under a deadline calibrated so that the FedFT-EDS
/// reference workload fits on every tier.
fn run_emergent_scenario(
    world: &World,
    alpha: f64,
    methods: &[Method],
) -> Result<Scenario, FlError> {
    let profile = world.profile();
    let hetero = HeterogeneityModel::two_tier();
    let base = setup::base_config(profile, profile.rounds_large);
    Scenario::run(world, profile.clients_large, alpha, |fed| {
        let reference = Method::FedFtEds { pds: 0.1 }
            .configure(base.clone())
            .with_heterogeneity(hetero.clone());
        let deadline = calibrated_deadline(fed, world.pretrained(), &reference, 1.2);
        methods
            .iter()
            .map(|&method| {
                let spec = RunSpec::method(world, method, base.clone());
                RunSpec {
                    label: format!("{} (deadline)", spec.label),
                    config: setup::deadline_config(spec.config, hetero.clone(), deadline),
                    ..spec
                }
            })
            .collect()
    })
}

/// Runs the emergent-straggler variant of Table III on the
/// [`setup::image_worlds`].
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_emergent(worlds: &[World]) -> Result<Vec<Scenario>, FlError> {
    Scenario::grid(worlds, &ALPHAS, |world, alpha| {
        run_emergent_scenario(world, alpha, &EMERGENT_METHODS)
    })
}

/// The `max_staleness` bounds swept by the async lineup. `0` is the
/// synchronous reference (bit-identical to the sequential backend); the
/// larger bounds trade freshness for overlap.
const ASYNC_STALENESS_LEVELS: [usize; 4] = [0, 1, 2, 4];

/// Runs one (task, alpha) scenario of the async bounded-staleness lineup:
/// FedFT-EDS on a two-tier device mix with partial participation (so the
/// straggler bottleneck rotates between rounds and overlap pays off), swept
/// over `levels` staleness bounds. The `max_staleness = 0` run doubles as
/// the synchronous baseline for both accuracy and wall clock.
fn run_async_scenario(world: &World, alpha: f64, levels: &[usize]) -> Result<Scenario, FlError> {
    let profile = world.profile();
    let method = Method::FedFtEds { pds: 0.1 };
    Scenario::run(world, profile.clients_large, alpha, |_| {
        levels
            .iter()
            .map(|&max_staleness| RunSpec {
                label: format!("{} (async s≤{max_staleness})", method.name()),
                config: method
                    .configure(setup::base_config(profile, profile.rounds_large))
                    .with_participation(0.5)
                    .with_heterogeneity(HeterogeneityModel::two_tier())
                    .with_async(max_staleness),
                initial: world.pretrained(),
            })
            .collect()
    })
}

/// Runs the async bounded-staleness variant of Table III on the
/// [`setup::image_worlds`]: accuracy vs `max_staleness` next to the
/// fixed-fraction and emergent lineups.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_async(worlds: &[World]) -> Result<Vec<Scenario>, FlError> {
    Scenario::grid(worlds, &ALPHAS, |world, alpha| {
        run_async_scenario(world, alpha, &ASYNC_STALENESS_LEVELS)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ExperimentProfile;
    use crate::scenario;
    use crate::setup::Task;

    fn tiny_world() -> World {
        World::build(&ExperimentProfile::tiny(), Task::Cifar10).unwrap()
    }

    #[test]
    fn lineup_matches_the_paper() {
        let entries = lineup();
        assert_eq!(entries.len(), 9);
        assert_eq!(entries[0].label(), "FedAvg w/o pretraining");
        assert_eq!(entries[2].label(), "FedAvg, 20% c.p.");
        assert_eq!(entries[8].label(), "FedFT-EDS (50%)");
    }

    #[test]
    fn tiny_scenario_runs_a_reduced_lineup() {
        let entries = vec![
            LineupEntry {
                method: Method::FedAvg,
                participation: 0.5,
            },
            LineupEntry {
                method: Method::FedFtEds { pds: 0.5 },
                participation: 1.0,
            },
        ];
        let scenario = run_scenario(&tiny_world(), 0.5, &entries).unwrap();
        assert_eq!(scenario.runs.len(), 2);
        assert!(scenario.best_accuracy_of("FedAvg, 50% c.p.").is_some());
        let scenarios = [scenario];
        assert_eq!(
            scenario::accuracy_table(&scenarios, Scenario::heading, "").len(),
            2
        );
        assert_eq!(scenario::efficiency_table(&scenarios, false).len(), 2);
        assert!(!scenario::curves_table(&scenarios).is_empty());
        assert_eq!(scenario::participation_table(&scenarios).len(), 2);
    }

    #[test]
    fn emergent_scenario_produces_stragglers_for_fedavg_only() {
        let methods = vec![Method::FedAvg, Method::FedFtEds { pds: 0.1 }];
        let scenario = run_emergent_scenario(&tiny_world(), 0.5, &methods).unwrap();
        assert_eq!(scenario.runs.len(), 2);
        let fedavg = &scenario.runs[0];
        let fedft = &scenario.runs[1];
        assert!(fedavg.label.contains("deadline"));
        // The deadline is calibrated so the FedFT reference fits on every
        // tier: FedFT keeps the whole pool, FedAvg drops its slow tier.
        assert_eq!(fedft.total_dropped_clients(), 0);
        assert!(
            fedavg.total_dropped_clients() > 0,
            "full-model FedAvg must lose slow-tier clients to the deadline"
        );
        assert!(fedavg.mean_participants() < fedft.mean_participants());
        assert_eq!(scenario::participation_table(&[scenario]).len(), 2);
    }

    #[test]
    fn emergent_lineup_offers_the_full_pool() {
        assert_eq!(EMERGENT_METHODS.len(), 5);
        assert!(EMERGENT_METHODS.contains(&Method::FedAvg));
        assert!(EMERGENT_METHODS.contains(&Method::FedFtAll));
    }

    #[test]
    fn async_scenario_sweeps_staleness_and_shrinks_wall_clock() {
        let scenario = run_async_scenario(&tiny_world(), 0.5, &[0, 2]).unwrap();
        assert_eq!(scenario.runs.len(), 2);
        let sync = &scenario.runs[0];
        let overlapped = &scenario.runs[1];
        assert!(sync.label.contains("s≤0"));
        assert_eq!(sync.max_update_staleness(), 0);
        assert!(overlapped.max_update_staleness() <= 2);
        assert!(
            overlapped.stale_update_count() > 0,
            "the swept bound must actually produce stale updates"
        );
        assert!(
            overlapped.total_wall_seconds() < sync.total_wall_seconds(),
            "overlap must shrink the simulated wall clock ({} vs {})",
            overlapped.total_wall_seconds(),
            sync.total_wall_seconds()
        );
        assert_eq!(scenario::staleness_table(&[scenario]).len(), 2);
        assert_eq!(ASYNC_STALENESS_LEVELS[0], 0);
    }
}
