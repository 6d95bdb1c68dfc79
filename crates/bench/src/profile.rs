//! Experiment scaling profiles.

use serde::{Deserialize, Serialize};

/// Controls the size of every experiment: dataset sizes, client counts,
/// model width and number of rounds.
///
/// * [`ExperimentProfile::fast`] — runs the complete suite in minutes on a
///   laptop CPU; used by default. Orderings between methods are already
///   stable at this scale.
/// * [`ExperimentProfile::paper`] — paper-scale parameters (50 rounds, larger
///   datasets and models); use `--profile paper` on the experiment binaries
///   when time allows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentProfile {
    /// Profile name shown in reports.
    pub name: String,
    /// Communication rounds for the 10-client experiments.
    pub rounds_small: usize,
    /// Communication rounds for the 100-client experiments.
    pub rounds_large: usize,
    /// Number of clients in the "small pool" experiments (paper: 10).
    pub clients_small: usize,
    /// Number of clients in the "large pool" straggler experiments (paper: 100).
    pub clients_large: usize,
    /// Training samples per class for the CIFAR-10-like domain.
    pub samples_per_class_c10: usize,
    /// Training samples per class for the CIFAR-100-like domain.
    pub samples_per_class_c100: usize,
    /// Training samples per class for the source (pretraining) domain.
    pub samples_per_class_source: usize,
    /// Training samples per class for the speech-commands-like domain.
    pub samples_per_class_gsc: usize,
    /// Test samples per class for every target domain.
    pub test_samples_per_class: usize,
    /// Hidden width of each block of the model.
    pub hidden: usize,
    /// Pretraining epochs on the source domain.
    pub pretrain_epochs: usize,
    /// Local epochs `E` per round.
    pub local_epochs: usize,
    /// Local mini-batch size.
    pub batch_size: usize,
    /// Epochs for the centralised baseline.
    pub centralised_epochs: usize,
    /// Master seed for the whole experiment suite.
    pub seed: u64,
}

impl ExperimentProfile {
    /// Fast profile: finishes the full suite in minutes.
    pub fn fast() -> Self {
        ExperimentProfile {
            name: "fast".to_string(),
            rounds_small: 12,
            rounds_large: 10,
            clients_small: 10,
            clients_large: 50,
            samples_per_class_c10: 120,
            samples_per_class_c100: 40,
            samples_per_class_source: 300,
            samples_per_class_gsc: 40,
            test_samples_per_class: 20,
            hidden: 64,
            pretrain_epochs: 30,
            local_epochs: 5,
            batch_size: 16,
            centralised_epochs: 30,
            seed: 2025,
        }
    }

    /// Paper-scale profile (50 rounds, 100 clients, larger domains).
    pub fn paper() -> Self {
        ExperimentProfile {
            name: "paper".to_string(),
            rounds_small: 50,
            rounds_large: 50,
            clients_small: 10,
            clients_large: 100,
            samples_per_class_c10: 400,
            samples_per_class_c100: 40,
            samples_per_class_source: 250,
            samples_per_class_gsc: 120,
            test_samples_per_class: 50,
            hidden: 64,
            pretrain_epochs: 20,
            local_epochs: 5,
            batch_size: 32,
            centralised_epochs: 80,
            seed: 2025,
        }
    }

    /// Tiny profile used by the experiments' unit tests and the CI smoke.
    pub fn tiny() -> Self {
        ExperimentProfile {
            name: "tiny".to_string(),
            rounds_small: 4,
            rounds_large: 3,
            clients_small: 4,
            clients_large: 8,
            samples_per_class_c10: 16,
            samples_per_class_c100: 3,
            samples_per_class_source: 12,
            samples_per_class_gsc: 8,
            test_samples_per_class: 5,
            hidden: 16,
            pretrain_epochs: 3,
            local_epochs: 2,
            batch_size: 16,
            centralised_epochs: 5,
            seed: 7,
        }
    }

    /// Resolves a profile by name (`fast`, `paper`, `tiny`).
    fn by_name(name: &str) -> Option<Self> {
        match name {
            "fast" => Some(Self::fast()),
            "paper" => Some(Self::paper()),
            "tiny" => Some(Self::tiny()),
            _ => None,
        }
    }

    /// Resolves the profile from the command line (`--profile NAME`), or
    /// [`ExperimentProfile::fast`] without the flag.
    ///
    /// This is the experiment binaries' entry point: a name that is not a
    /// profile, or `--profile` without a value, prints the accepted names
    /// and exits with status 2 instead of running another experiment.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::resolve(&args).unwrap_or_else(|err| {
            eprintln!("{err}");
            std::process::exit(2);
        })
    }

    /// The parsing behind [`ExperimentProfile::from_args`]: the profile
    /// `--profile` names, which must exist, or `fast` without the flag.
    fn resolve(args: &[String]) -> Result<Self, ProfileError> {
        let Some(pos) = args.iter().position(|a| a == "--profile") else {
            return Ok(Self::fast());
        };
        let name = args.get(pos + 1).ok_or(ProfileError::MissingValue)?;
        Self::by_name(name).ok_or_else(|| ProfileError::Unknown(name.clone()))
    }
}

/// Why no profile could be resolved from the command line.
#[derive(Debug, PartialEq)]
enum ProfileError {
    /// `--profile` was the last argument.
    MissingValue,
    /// `--profile` named no profile.
    Unknown(String),
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::MissingValue => write!(f, "--profile requires a value")?,
            ProfileError::Unknown(name) => write!(f, "unknown profile `{name}`")?,
        }
        write!(f, " (accepted: fast, paper, tiny)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_have_increasing_scale() {
        let tiny = ExperimentProfile::tiny();
        let fast = ExperimentProfile::fast();
        let paper = ExperimentProfile::paper();
        assert!(tiny.rounds_small < fast.rounds_small);
        assert!(fast.rounds_small < paper.rounds_small);
        assert!(fast.clients_large <= paper.clients_large);
        assert_eq!(paper.clients_small, 10);
        assert_eq!(paper.clients_large, 100);
        assert_eq!(paper.rounds_small, 50);
        assert_eq!(paper.local_epochs, 5);
    }

    #[test]
    fn by_name_resolves_known_profiles() {
        assert_eq!(ExperimentProfile::by_name("fast").unwrap().name, "fast");
        assert_eq!(ExperimentProfile::by_name("paper").unwrap().name, "paper");
        assert_eq!(ExperimentProfile::by_name("tiny").unwrap().name, "tiny");
        assert!(ExperimentProfile::by_name("nope").is_none());
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn resolve_takes_a_known_profile_from_the_arguments() {
        let profile = ExperimentProfile::resolve(&args(&["--profile", "paper"]));
        assert_eq!(profile, Ok(ExperimentProfile::paper()));
        // The flag is found among other arguments.
        let profile = ExperimentProfile::resolve(&args(&["--verbose", "--profile", "tiny"]));
        assert_eq!(profile, Ok(ExperimentProfile::tiny()));
    }

    #[test]
    fn resolve_rejects_an_unknown_profile_name() {
        let err = ExperimentProfile::resolve(&args(&["--profile", "papr"])).unwrap_err();
        assert_eq!(err, ProfileError::Unknown("papr".to_string()));
        assert!(err.to_string().contains("fast, paper, tiny"));
        // Names are case-sensitive: a mistyped one is an error, not a silent
        // `fast`.
        let err = ExperimentProfile::resolve(&args(&["--profile", "Paper"])).unwrap_err();
        assert_eq!(err, ProfileError::Unknown("Paper".to_string()));
    }

    #[test]
    fn resolve_rejects_a_profile_flag_without_a_value() {
        let err = ExperimentProfile::resolve(&args(&["--profile"])).unwrap_err();
        assert_eq!(err, ProfileError::MissingValue);
    }

    #[test]
    fn resolve_falls_back_to_fast() {
        let profile = ExperimentProfile::resolve(&args(&["--verbose"]));
        assert_eq!(profile, Ok(ExperimentProfile::fast()));
        assert_eq!(
            ExperimentProfile::resolve(&[]),
            Ok(ExperimentProfile::fast())
        );
    }
}
