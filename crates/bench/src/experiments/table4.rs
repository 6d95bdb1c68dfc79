//! Table IV — cross-domain evaluation on the speech-commands-like task.
//!
//! The global model is pretrained on the image-family source domain and then
//! federatedly fine-tuned on a target whose projection is partially rotated
//! away (standing in for the image → speech domain shift). Pretraining still
//! helps, and entropy-based selection still beats random selection.

use crate::profile::ExperimentProfile;
use crate::scenario::{RunSpec, Scenario};
use crate::setup::{self, Task, World};
use fedft_core::{FlError, Method};

/// The Table IV method lineup.
pub fn lineup() -> Vec<Method> {
    vec![
        Method::FedAvgScratch,
        Method::FedAvg,
        Method::FedFtRds { pds: 0.1 },
        Method::FedFtEds { pds: 0.1 },
        Method::FedFtRds { pds: 0.5 },
        Method::FedFtEds { pds: 0.5 },
    ]
}

/// Runs `methods` on one α split of the speech-commands-like world, with
/// the centralised upper bound.
fn run_scenario(world: &World, methods: &[Method], alpha: f64) -> Result<Scenario, FlError> {
    let profile = world.profile();
    let base = setup::base_config(profile, profile.rounds_large);
    let mut scenario = Scenario::run(world, profile.clients_large, alpha, |_| {
        methods
            .iter()
            .map(|&method| RunSpec::method(world, method, base.clone()))
            .collect()
    })?;
    scenario.centralised = Some(world.centralised_accuracy()?);
    Ok(scenario)
}

/// Runs the full Table IV experiment (Dirichlet(0.1), full lineup).
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run(profile: &ExperimentProfile) -> Result<Scenario, FlError> {
    let world = World::build(profile, Task::SpeechCommands)?;
    run_scenario(&world, &lineup(), 0.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;

    #[test]
    fn cross_domain_runs_and_pretraining_is_not_harmful() {
        let profile = ExperimentProfile::tiny();
        let world = World::build(&profile, Task::SpeechCommands).unwrap();
        let methods = vec![
            Method::FedAvgScratch,
            Method::FedAvg,
            Method::FedFtEds { pds: 0.5 },
        ];
        let result = run_scenario(&world, &methods, 0.5).unwrap();
        assert_eq!(result.runs.len(), 3);
        assert!(result.centralised.unwrap() > 0.0);
        let scratch = result.best_accuracy_of("FedAvg w/o pretraining").unwrap();
        let pretrained = result.best_accuracy_of("FedAvg").unwrap();
        assert!(
            pretrained >= scratch - 0.1,
            "cross-domain pretraining should not be catastrophic ({pretrained} vs {scratch})"
        );
        let table = scenario::accuracy_table(&[result], |_| "Top-1 Acc".into(), "");
        assert_eq!(table.len(), 4);
        assert_eq!(lineup().len(), 6);
    }
}
