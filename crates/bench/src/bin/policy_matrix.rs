//! Regenerates the policy-matrix report: the data-selection,
//! client-selection and per-tier-freeze choices crossed with device
//! heterogeneity mixes, in a Table III-style grid.
//!
//! The first row is the paper's FedFT-EDS defaults (bit-identical to the
//! pre-policy code path); every other row changes exactly one policy axis.
//!
//! Usage: `cargo run --release -p fedft-bench --bin policy_matrix [-- --profile fast|paper|tiny]`

use fedft_bench::experiments::policy_matrix;
use fedft_bench::{output, ExperimentProfile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let profile = ExperimentProfile::from_args();
    println!(
        "Policy matrix (profile: {}, {} clients, {} rounds)",
        profile.name, profile.clients_small, profile.rounds_small
    );
    let result = policy_matrix::run(&profile)?;
    let main_table = result.to_table();
    output::print_table(
        "Policy matrix — best top-1 accuracy (%) per policy × mix",
        &main_table,
    );
    let participation = result.participation_table();
    output::print_table(
        "Policy matrix — participation / drops / wall clock per cell",
        &participation,
    );

    for (name, table) in [
        ("policy_matrix", &main_table),
        ("policy_matrix_participation", &participation),
    ] {
        let path = output::write_table_csv(name, table)?;
        println!("wrote {}", path.display());
    }
    Ok(())
}
