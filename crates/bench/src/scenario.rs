//! Scenarios: a lineup of labelled runs on one (task, α) split of a
//! [`World`], the one runner that plays it, and the long-format tables the
//! paper binaries print from a list of scenarios.

use crate::setup::{Task, World};
use fedft_analysis::{report, Table};
use fedft_core::{FlConfig, FlError, Method, RunResult, Simulation};
use fedft_data::FederatedDataset;
use fedft_nn::BlockNet;

/// One run of a lineup: its label, its configuration and the model it
/// starts from.
#[derive(Debug, Clone)]
pub struct RunSpec<'w> {
    /// Label of the run in every table.
    pub label: String,
    /// The run's full configuration.
    pub config: FlConfig,
    /// The global model the run starts from.
    pub initial: &'w BlockNet,
}

impl<'w> RunSpec<'w> {
    /// A named method on `base`: the method's configuration, the initial
    /// model its pretraining flag picks and its name as the label.
    pub fn method(world: &'w World, method: Method, base: FlConfig) -> Self {
        RunSpec {
            label: method.name(),
            config: method.configure(base),
            initial: if method.uses_pretraining() {
                world.pretrained()
            } else {
                world.scratch()
            },
        }
    }
}

/// The runs of one lineup on one (task, α) split.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Target task.
    pub task: Task,
    /// Dirichlet concentration of the client split.
    pub alpha: f64,
    /// One run per lineup entry, in lineup order.
    pub runs: Vec<RunResult>,
    /// Accuracy of the centralised upper bound, for tables that report it.
    pub centralised: Option<f32>,
}

impl Scenario {
    /// Splits the world's target across `clients` clients by Dirichlet(α)
    /// and runs every entry of the lineup `lineup` builds from that split.
    ///
    /// Each run whose losses go non-finite is named on stderr with the
    /// first such round: its best accuracy, which the tables print, may
    /// predate the collapse.
    ///
    /// # Errors
    ///
    /// Propagates partitioning and simulation errors.
    pub fn run<'w>(
        world: &'w World,
        clients: usize,
        alpha: f64,
        lineup: impl FnOnce(&FederatedDataset) -> Vec<RunSpec<'w>>,
    ) -> Result<Scenario, FlError> {
        let data = world.federate(clients, alpha)?;
        let mut runs = Vec::new();
        for spec in lineup(&data) {
            let run =
                Simulation::new(spec.config)?.run_labelled(spec.label, &data, spec.initial)?;
            if let Some(round) = first_non_finite_round(&run) {
                eprintln!(
                    "non-finite run: `{}` on {} α={alpha}: loss non-finite from round {round}",
                    run.label,
                    world.task().label()
                );
            }
            runs.push(run);
        }
        Ok(Scenario {
            task: world.task(),
            alpha,
            runs,
            centralised: None,
        })
    }

    /// Runs `scenario` at every α on every world, world by world, so that
    /// each task's world serves all of its α.
    ///
    /// # Errors
    ///
    /// Returns the first error `scenario` returns.
    pub fn grid(
        worlds: &[World],
        alphas: &[f64],
        scenario: impl Fn(&World, f64) -> Result<Scenario, FlError>,
    ) -> Result<Vec<Scenario>, FlError> {
        let mut scenarios = Vec::new();
        for world in worlds {
            for &alpha in alphas {
                scenarios.push(scenario(world, alpha)?);
            }
        }
        Ok(scenarios)
    }

    /// Best accuracy of the run with the given label, if present.
    pub fn best_accuracy_of(&self, label: &str) -> Option<f32> {
        self.runs
            .iter()
            .find(|r| r.label == label)
            .map(RunResult::best_accuracy)
    }

    /// Column heading of the scenario in an accuracy grid: task and α.
    pub fn heading(&self) -> String {
        format!("{} α={}", self.task.label(), self.alpha)
    }
}

/// The first round (1-based, as recorded) whose test loss or mean training
/// loss is not finite, if any.
fn first_non_finite_round(run: &RunResult) -> Option<usize> {
    run.rounds
        .iter()
        .find(|r| !r.test_loss.is_finite() || !r.mean_train_loss.is_finite())
        .map(|r| r.round)
}

/// The method × scenario accuracy grid: one row per run label of the first
/// scenario, one column per scenario headed by `column`, best accuracy per
/// cell. When the first scenario carries a centralised accuracy, a last row
/// labelled `centralised` holds each scenario's.
pub fn accuracy_table(
    scenarios: &[Scenario],
    column: impl Fn(&Scenario) -> String,
    centralised: &str,
) -> Table {
    let mut headers = vec!["Method".to_string()];
    headers.extend(scenarios.iter().map(&column));
    let mut table = Table::new(headers);
    let Some(first) = scenarios.first() else {
        return table;
    };
    let pct_or_dash = |a: Option<f32>| a.map_or("-".into(), |a| report::pct(f64::from(a)));
    for run in &first.runs {
        let mut row = vec![run.label.clone()];
        row.extend(
            scenarios
                .iter()
                .map(|s| pct_or_dash(s.best_accuracy_of(&run.label))),
        );
        let _ = table.add_row(row);
    }
    if first.centralised.is_some() {
        let mut row = vec![centralised.to_string()];
        row.extend(scenarios.iter().map(|s| pct_or_dash(s.centralised)));
        let _ = table.add_row(row);
    }
    table
}

/// A long-format table: `task, alpha, method`, then `columns`, with the
/// rows `rows` gives for each run of each scenario.
fn per_run(
    scenarios: &[Scenario],
    columns: &[&str],
    rows: impl Fn(&RunResult) -> Vec<Vec<String>>,
) -> Table {
    let headers = ["task", "alpha", "method"].iter().chain(columns);
    let mut table = Table::new(headers.map(|h| h.to_string()).collect());
    for scenario in scenarios {
        for run in &scenario.runs {
            for cells in rows(run) {
                let mut row = vec![
                    scenario.task.label().to_string(),
                    format!("{}", scenario.alpha),
                    run.label.clone(),
                ];
                row.extend(cells);
                let _ = table.add_row(row);
            }
        }
    }
    table
}

/// The learning curves (Figures 5, 8 and 9): one row per run and round.
pub fn curves_table(scenarios: &[Scenario]) -> Table {
    per_run(scenarios, &["round", "accuracy_pct"], |run| {
        run.rounds
            .iter()
            .map(|r| vec![r.round.to_string(), report::pct(f64::from(r.test_accuracy))])
            .collect()
    })
}

/// The learning-efficiency points (Figures 6 and 7): per run, best accuracy
/// and accuracy per simulated client second under the paper-faithful
/// accounting (frozen prefix recomputed on every batch and selection pass,
/// as on the paper's devices). With `cached`, also the cached accounting
/// (boundary activations memoised, only the trainable suffix billed) and
/// both accountings' client seconds: the extra headroom partial training
/// offers a device that caches its frozen features.
pub fn efficiency_table(scenarios: &[Scenario], cached: bool) -> Table {
    let mut columns = vec!["best_accuracy_pct", "efficiency_pct_per_s"];
    if cached {
        columns.extend([
            "total_client_seconds",
            "cached_efficiency_pct_per_s",
            "total_client_seconds_cached",
        ]);
    }
    per_run(scenarios, &columns, |run| {
        let mut cells = vec![
            report::pct(f64::from(run.best_accuracy())),
            report::eff(run.learning_efficiency()),
        ];
        if cached {
            cells.extend([
                format!("{:.1}", run.total_client_seconds()),
                report::eff(run.cached_learning_efficiency()),
                format!("{:.1}", run.total_client_seconds_cached()),
            ]);
        }
        vec![cells]
    })
}

/// Straggler participation: per run, mean participants per round, total
/// scheduler drops and the simulated wall clock. Under a deadline these
/// columns are results rather than inputs.
pub fn participation_table(scenarios: &[Scenario]) -> Table {
    per_run(
        scenarios,
        &["mean_participants", "dropped_total", "wall_clock_s"],
        |run| {
            vec![vec![
                format!("{:.1}", run.mean_participants()),
                run.total_dropped_clients().to_string(),
                format!("{:.1}", run.total_wall_seconds()),
            ]]
        },
    )
}

/// Staleness: per run, mean and maximum staleness of the aggregated
/// updates, the number of stale updates and the simulated wall clock, which
/// shows what overlapping rounds buys.
pub fn staleness_table(scenarios: &[Scenario]) -> Table {
    per_run(
        scenarios,
        &[
            "mean_staleness",
            "max_staleness",
            "stale_updates",
            "wall_clock_s",
        ],
        |run| {
            vec![vec![
                format!("{:.2}", run.mean_update_staleness()),
                run.max_update_staleness().to_string(),
                run.stale_update_count().to_string(),
                format!("{:.1}", run.total_wall_seconds()),
            ]]
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ExperimentProfile;
    use crate::setup::base_config;

    fn fedft_eds(world: &World) -> Vec<RunSpec<'_>> {
        let base = base_config(world.profile(), world.profile().rounds_small);
        vec![RunSpec::method(world, Method::FedFtEds { pds: 0.5 }, base)]
    }

    #[test]
    fn a_method_runs_under_its_name_from_its_initial_model() {
        let profile = ExperimentProfile::tiny();
        let world = World::build(&profile, Task::Cifar10).unwrap();
        let scenario =
            Scenario::run(&world, profile.clients_small, 0.5, |_| fedft_eds(&world)).unwrap();
        assert_eq!(scenario.runs.len(), 1);
        let run = &scenario.runs[0];
        assert_eq!(run.rounds.len(), profile.rounds_small);
        assert_eq!(run.label, "FedFT-EDS (50%)");
        assert_eq!(first_non_finite_round(run), None);
        assert_eq!(
            scenario.best_accuracy_of(&run.label),
            Some(run.best_accuracy())
        );
        assert_eq!(scenario.heading(), "CIFAR-10-like α=0.5");
    }

    #[test]
    fn a_non_finite_loss_is_flagged_at_its_first_round() {
        let profile = ExperimentProfile::tiny();
        let world = World::build(&profile, Task::Cifar10).unwrap();
        let finite = Scenario::run(&world, profile.clients_small, 0.5, |_| fedft_eds(&world))
            .unwrap()
            .runs
            .remove(0);
        assert_eq!(first_non_finite_round(&finite), None);
        let mut diverged = finite.clone();
        diverged.rounds[1].test_loss = f32::NAN;
        diverged.rounds[2].test_loss = f32::INFINITY;
        assert_eq!(first_non_finite_round(&diverged), Some(2));
        let mut diverged = finite;
        diverged.rounds[3].mean_train_loss = f32::NAN;
        assert_eq!(first_non_finite_round(&diverged), Some(4));
    }

    /// Pretraining, the scratch model and the centralised baseline depend
    /// on neither α nor the client count, which is what lets one world
    /// serve a whole sweep.
    #[test]
    fn a_reused_world_equals_a_fresh_one() {
        let profile = ExperimentProfile::tiny();
        let reused = World::build(&profile, Task::Cifar10).unwrap();
        let other =
            Scenario::run(&reused, profile.clients_large, 0.1, |_| fedft_eds(&reused)).unwrap();
        let centralised = reused.centralised_accuracy().unwrap();
        let on_reused =
            Scenario::run(&reused, profile.clients_small, 0.5, |_| fedft_eds(&reused)).unwrap();

        let fresh = World::build(&profile, Task::Cifar10).unwrap();
        let on_fresh =
            Scenario::run(&fresh, profile.clients_small, 0.5, |_| fedft_eds(&fresh)).unwrap();
        assert_ne!(other.runs, on_fresh.runs);
        assert!(on_reused.runs == on_fresh.runs);
        assert_eq!(fresh.centralised_accuracy().unwrap(), centralised);
        assert_eq!(reused.centralised_accuracy().unwrap(), centralised);
    }
}
