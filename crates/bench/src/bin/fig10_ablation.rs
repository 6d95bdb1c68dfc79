//! Regenerates Figure 10: the three ablations of FedFT-EDS (fine-tuned part,
//! data heterogeneity, hardened-softmax temperature), each against the
//! FedFT-RDS baseline.
//!
//! Usage:
//! `cargo run --release -p fedft-bench --bin fig10_ablation [-- --profile fast|paper] [-- part|alpha|temperature]`
//!
//! Without a sweep argument all three sweeps are run.

use fedft_bench::experiments::ablation::{self, paper_sweeps};
use fedft_bench::{output, ExperimentProfile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let profile = ExperimentProfile::from_args();
    let args: Vec<String> = std::env::args().collect();
    let wants = |name: &str| args.iter().any(|a| a == name);
    let run_all = !(wants("part") || wants("alpha") || wants("temperature"));

    println!("Figure 10 — ablations (profile: {})", profile.name);
    let world = ablation::world(&profile)?;

    if run_all || wants("part") {
        let table =
            ablation::finetuned_part_sweep(&world, &paper_sweeps::FREEZE_LEVELS)?.to_table();
        output::print_table("Figure 10a — part of the model fine-tuned", &table);
        output::write_table_csv("fig10a_finetuned_part", &table)?;
    }
    if run_all || wants("alpha") {
        let table = ablation::heterogeneity_sweep(&world, &paper_sweeps::ALPHAS)?.to_table();
        output::print_table("Figure 10b — data heterogeneity", &table);
        output::write_table_csv("fig10b_heterogeneity", &table)?;
    }
    if run_all || wants("temperature") {
        let table = ablation::temperature_sweep(&world, &paper_sweeps::TEMPERATURES)?.to_table();
        output::print_table("Figure 10c — hardened softmax temperature", &table);
        output::write_table_csv("fig10c_temperature", &table)?;
    }
    Ok(())
}
