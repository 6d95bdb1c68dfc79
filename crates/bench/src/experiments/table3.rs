//! Table III + Figures 7–9 — the 100-client straggler scenario.
//!
//! Three straggler models are offered side by side:
//!
//! * **Fixed-fraction** ([`lineup`] / [`run_scenario`]): FedAvg is run at
//!   three participation fractions (`fn` ∈ {100%, 20%, 10%}) to model
//!   stragglers dropping out under the heavy full-model workload, while the
//!   FedFT variants assume full participation thanks to their reduced
//!   workload. This mirrors the paper's Table III setup verbatim.
//! * **Emergent** ([`emergent_methods`] / [`run_emergent_scenario`]): every
//!   method is nominally offered the full client pool, but the pool is a
//!   heterogeneous two-tier device mix running under a round deadline
//!   ([`fedft_core::ExecutionBackend::Deadline`]). Slow-tier clients that cannot fit
//!   the full-model round inside the deadline drop out *on their own* —
//!   "FedAvg loses stragglers, FedFT keeps them" becomes a result of the
//!   workload model instead of a configured fraction.
//! * **Async bounded-staleness** ([`async_staleness_levels`] /
//!   [`run_async_scenario`]): the third answer to stragglers — neither
//!   shrink the pool nor drop the slow tier, but *overlap* rounds with
//!   [`fedft_core::ExecutionBackend::Async`]. The same two-tier mix is swept over
//!   `max_staleness` bounds; accuracy vs staleness (and the shrinking
//!   simulated wall clock, see [`Table3Result::staleness_table`]) shows the
//!   freshness/throughput trade-off next to the other two lineups.
//!
//! The same runs provide the learning-efficiency points of Figure 7 and the
//! learning curves of Figures 8 and 9.

use crate::profile::ExperimentProfile;
use crate::setup::{self, Task};
use fedft_analysis::curves::efficiency_points;
use fedft_analysis::{report, Table};
use fedft_core::{FlConfig, FlError, HeterogeneityModel, Method, RunResult, Simulation};
use fedft_data::FederatedDataset;
use fedft_nn::BlockNet;
use serde::{Deserialize, Serialize};

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
    vec![
        LineupEntry {
            method: Method::FedAvgScratch,
            participation: 1.0,
        },
        LineupEntry {
            method: Method::FedAvg,
            participation: 1.0,
        },
        LineupEntry {
            method: Method::FedAvg,
            participation: 0.2,
        },
        LineupEntry {
            method: Method::FedAvg,
            participation: 0.1,
        },
        LineupEntry {
            method: Method::FedFtRds { pds: 0.1 },
            participation: 1.0,
        },
        LineupEntry {
            method: Method::FedFtEds { pds: 0.1 },
            participation: 1.0,
        },
        LineupEntry {
            method: Method::FedFtAll,
            participation: 1.0,
        },
        LineupEntry {
            method: Method::FedFtRds { pds: 0.5 },
            participation: 1.0,
        },
        LineupEntry {
            method: Method::FedFtEds { pds: 0.5 },
            participation: 1.0,
        },
    ]
}

/// Results for one (task, alpha) scenario of Table III.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StragglerScenario {
    /// Target task label.
    pub task: String,
    /// Dirichlet concentration.
    pub alpha: f64,
    /// One run per lineup entry, labelled with [`LineupEntry::label`].
    pub runs: Vec<RunResult>,
}

impl StragglerScenario {
    /// Best accuracy of the run with the given label, if present.
    pub fn best_accuracy_of(&self, label: &str) -> Option<f32> {
        self.runs
            .iter()
            .find(|r| r.label == label)
            .map(RunResult::best_accuracy)
    }
}

/// Result of the full Table III experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table3Result {
    /// One entry per (task, alpha) combination.
    pub scenarios: Vec<StragglerScenario>,
}

impl Table3Result {
    /// Renders the paper's Table III.
    pub fn to_table(&self) -> Table {
        let mut headers = vec!["Method".to_string()];
        for s in &self.scenarios {
            headers.push(format!("{} α={}", s.task, s.alpha));
        }
        let mut table = Table::new(headers);
        if self.scenarios.is_empty() {
            return table;
        }
        for label in self.scenarios[0].runs.iter().map(|r| r.label.clone()) {
            let mut row = vec![label.clone()];
            for scenario in &self.scenarios {
                row.push(
                    scenario
                        .best_accuracy_of(&label)
                        .map_or("-".into(), |a| report::pct(f64::from(a))),
                );
            }
            let _ = table.add_row(row);
        }
        table
    }

    /// Renders the Figure 7 learning-efficiency points.
    pub fn efficiency_table(&self) -> Table {
        let mut table = Table::new(vec![
            "task".into(),
            "alpha".into(),
            "method".into(),
            "best_accuracy_pct".into(),
            "efficiency_pct_per_s".into(),
        ]);
        for scenario in &self.scenarios {
            for point in efficiency_points(&scenario.runs) {
                let _ = table.add_row(vec![
                    scenario.task.clone(),
                    format!("{}", scenario.alpha),
                    point.label,
                    format!("{:.2}", point.best_accuracy_pct),
                    report::eff(point.efficiency),
                ]);
            }
        }
        table
    }

    /// Renders a straggler-participation summary: per run, the mean number
    /// of participants per round, total scheduler drops and the simulated
    /// wall-clock time of the whole run. Most interesting for emergent
    /// scenarios, where these columns are results rather than inputs.
    pub fn participation_table(&self) -> Table {
        let mut table = Table::new(vec![
            "task".into(),
            "alpha".into(),
            "method".into(),
            "mean_participants".into(),
            "dropped_total".into(),
            "wall_clock_s".into(),
        ]);
        for scenario in &self.scenarios {
            for run in &scenario.runs {
                let _ = table.add_row(vec![
                    scenario.task.clone(),
                    format!("{}", scenario.alpha),
                    run.label.clone(),
                    format!("{:.1}", run.mean_participants()),
                    run.total_dropped_clients().to_string(),
                    format!("{:.1}", run.total_wall_seconds()),
                ]);
            }
        }
        table
    }

    /// Renders a staleness summary: per run, the mean and maximum staleness
    /// of aggregated updates, the share of stale updates and the simulated
    /// wall clock. Only the async lineup produces non-zero staleness; the
    /// wall-clock column shows what the overlap buys.
    pub fn staleness_table(&self) -> Table {
        let mut table = Table::new(vec![
            "task".into(),
            "alpha".into(),
            "method".into(),
            "mean_staleness".into(),
            "max_staleness".into(),
            "stale_updates".into(),
            "wall_clock_s".into(),
        ]);
        for scenario in &self.scenarios {
            for run in &scenario.runs {
                let _ = table.add_row(vec![
                    scenario.task.clone(),
                    format!("{}", scenario.alpha),
                    run.label.clone(),
                    format!("{:.2}", run.mean_update_staleness()),
                    run.max_update_staleness().to_string(),
                    run.stale_update_count().to_string(),
                    format!("{:.1}", run.total_wall_seconds()),
                ]);
            }
        }
        table
    }

    /// Renders the Figures 8/9 learning curves as a long-format table.
    pub fn curves_table(&self) -> Table {
        let mut table = Table::new(vec![
            "task".into(),
            "alpha".into(),
            "method".into(),
            "round".into(),
            "accuracy_pct".into(),
        ]);
        for scenario in &self.scenarios {
            for run in &scenario.runs {
                for record in &run.rounds {
                    let _ = table.add_row(vec![
                        scenario.task.clone(),
                        format!("{}", scenario.alpha),
                        run.label.clone(),
                        record.round.to_string(),
                        report::pct(f64::from(record.test_accuracy)),
                    ]);
                }
            }
        }
        table
    }
}

/// Runs one (task, alpha) scenario with the Table III lineup.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_scenario(
    profile: &ExperimentProfile,
    task: Task,
    alpha: f64,
    entries: &[LineupEntry],
) -> Result<StragglerScenario, FlError> {
    let source = setup::source_bundle(profile)?;
    let target = setup::target_bundle(profile, task)?;
    let pretrained = setup::pretrained_model(profile, &source, &target)?;
    let scratch = setup::scratch_model(profile, &target);
    let fed = setup::federate(&target, profile.clients_large, alpha, profile.seed)?;

    let mut runs = Vec::new();
    for entry in entries {
        let base = setup::base_config(profile, profile.rounds_large)
            .with_participation(entry.participation);
        let config = entry.method.configure(base);
        let initial = if entry.method.uses_pretraining() {
            &pretrained
        } else {
            &scratch
        };
        runs.push(Simulation::new(config)?.run_labelled(entry.label(), &fed, initial)?);
    }
    Ok(StragglerScenario {
        task: task.label().to_string(),
        alpha,
        runs,
    })
}

/// Runs the full Table III experiment.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run(profile: &ExperimentProfile) -> Result<Table3Result, FlError> {
    let entries = lineup();
    let mut scenarios = Vec::new();
    for task in [Task::Cifar10, Task::Cifar100] {
        for alpha in [0.1, 0.5] {
            scenarios.push(run_scenario(profile, task, alpha, &entries)?);
        }
    }
    Ok(Table3Result { scenarios })
}

/// The emergent-straggler lineup: every method is offered the full pool and
/// the deadline decides who stays.
pub fn emergent_methods() -> Vec<Method> {
    vec![
        Method::FedAvg,
        Method::FedFtRds { pds: 0.1 },
        Method::FedFtEds { pds: 0.1 },
        Method::FedFtAll,
        Method::FedFtEds { pds: 0.5 },
    ]
}

/// Calibrates a round deadline from a reference configuration: the largest
/// predicted round time any client in `fed` needs under `reference`, times
/// `headroom`.
///
/// Calibrating against a FedFT configuration (with `headroom` slightly above
/// one) yields a deadline every device tier can meet for the reduced
/// workload while slow-tier clients overrun it for full-model FedAvg — the
/// emergent version of the paper's straggler setting.
pub fn calibrated_deadline(
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
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_emergent_scenario(
    profile: &ExperimentProfile,
    task: Task,
    alpha: f64,
    methods: &[Method],
) -> Result<StragglerScenario, FlError> {
    let source = setup::source_bundle(profile)?;
    let target = setup::target_bundle(profile, task)?;
    let pretrained = setup::pretrained_model(profile, &source, &target)?;
    let scratch = setup::scratch_model(profile, &target);
    let fed = setup::federate(&target, profile.clients_large, alpha, profile.seed)?;

    let hetero = HeterogeneityModel::two_tier();
    let base = setup::base_config(profile, profile.rounds_large);
    let reference = Method::FedFtEds { pds: 0.1 }
        .configure(base.clone())
        .with_heterogeneity(hetero.clone());
    let deadline = calibrated_deadline(&fed, &pretrained, &reference, 1.2);

    let mut runs = Vec::new();
    for &method in methods {
        let config =
            setup::deadline_config(method.configure(base.clone()), hetero.clone(), deadline);
        let initial = if method.uses_pretraining() {
            &pretrained
        } else {
            &scratch
        };
        let label = format!("{} (deadline)", method.name());
        runs.push(Simulation::new(config)?.run_labelled(label, &fed, initial)?);
    }
    Ok(StragglerScenario {
        task: task.label().to_string(),
        alpha,
        runs,
    })
}

/// Runs the emergent-straggler variant of Table III over both image tasks.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_emergent(profile: &ExperimentProfile) -> Result<Table3Result, FlError> {
    let methods = emergent_methods();
    let mut scenarios = Vec::new();
    for task in [Task::Cifar10, Task::Cifar100] {
        for alpha in [0.1, 0.5] {
            scenarios.push(run_emergent_scenario(profile, task, alpha, &methods)?);
        }
    }
    Ok(Table3Result { scenarios })
}

/// The `max_staleness` bounds swept by the async lineup. `0` is the
/// synchronous reference (bit-identical to the sequential backend); the
/// larger bounds trade freshness for overlap.
pub fn async_staleness_levels() -> Vec<usize> {
    vec![0, 1, 2, 4]
}

/// Runs one (task, alpha) scenario of the async bounded-staleness lineup:
/// FedFT-EDS on a two-tier device mix with partial participation (so the
/// straggler bottleneck rotates between rounds and overlap pays off), swept
/// over `levels` staleness bounds. The `max_staleness = 0` run doubles as
/// the synchronous baseline for both accuracy and wall clock.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_async_scenario(
    profile: &ExperimentProfile,
    task: Task,
    alpha: f64,
    levels: &[usize],
) -> Result<StragglerScenario, FlError> {
    let source = setup::source_bundle(profile)?;
    let target = setup::target_bundle(profile, task)?;
    let pretrained = setup::pretrained_model(profile, &source, &target)?;
    let fed = setup::federate(&target, profile.clients_large, alpha, profile.seed)?;

    let hetero = HeterogeneityModel::two_tier();
    let method = Method::FedFtEds { pds: 0.1 };
    let mut runs = Vec::new();
    for &max_staleness in levels {
        let config = method
            .configure(setup::base_config(profile, profile.rounds_large))
            .with_participation(0.5)
            .with_heterogeneity(hetero.clone())
            .with_async(max_staleness);
        let label = format!("{} (async s≤{max_staleness})", method.name());
        runs.push(Simulation::new(config)?.run_labelled(label, &fed, &pretrained)?);
    }
    Ok(StragglerScenario {
        task: task.label().to_string(),
        alpha,
        runs,
    })
}

/// Runs the async bounded-staleness variant of Table III over both image
/// tasks: accuracy vs `max_staleness` next to the fixed-fraction and
/// emergent lineups.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_async(profile: &ExperimentProfile) -> Result<Table3Result, FlError> {
    let levels = async_staleness_levels();
    let mut scenarios = Vec::new();
    for task in [Task::Cifar10, Task::Cifar100] {
        for alpha in [0.1, 0.5] {
            scenarios.push(run_async_scenario(profile, task, alpha, &levels)?);
        }
    }
    Ok(Table3Result { scenarios })
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let profile = ExperimentProfile::tiny();
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
        let scenario = run_scenario(&profile, Task::Cifar10, 0.5, &entries).unwrap();
        assert_eq!(scenario.runs.len(), 2);
        assert!(scenario.best_accuracy_of("FedAvg, 50% c.p.").is_some());
        let result = Table3Result {
            scenarios: vec![scenario],
        };
        assert_eq!(result.to_table().len(), 2);
        assert_eq!(result.efficiency_table().len(), 2);
        assert!(!result.curves_table().is_empty());
        assert_eq!(result.participation_table().len(), 2);
    }

    #[test]
    fn emergent_scenario_produces_stragglers_for_fedavg_only() {
        let profile = ExperimentProfile::tiny();
        let methods = vec![Method::FedAvg, Method::FedFtEds { pds: 0.1 }];
        let scenario = run_emergent_scenario(&profile, Task::Cifar10, 0.5, &methods).unwrap();
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
        let result = Table3Result {
            scenarios: vec![scenario],
        };
        assert_eq!(result.participation_table().len(), 2);
    }

    #[test]
    fn emergent_lineup_offers_the_full_pool() {
        let methods = emergent_methods();
        assert_eq!(methods.len(), 5);
        assert!(methods.contains(&Method::FedAvg));
        assert!(methods.contains(&Method::FedFtAll));
    }

    #[test]
    fn async_scenario_sweeps_staleness_and_shrinks_wall_clock() {
        let profile = ExperimentProfile::tiny();
        let scenario = run_async_scenario(&profile, Task::Cifar10, 0.5, &[0, 2]).unwrap();
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
        let result = Table3Result {
            scenarios: vec![scenario],
        };
        assert_eq!(result.staleness_table().len(), 2);
        assert_eq!(async_staleness_levels()[0], 0);
    }
}
