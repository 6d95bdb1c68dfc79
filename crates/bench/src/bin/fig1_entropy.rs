//! Regenerates the entropy-distribution panel of Figure 1: per-sample entropy
//! histograms of one client's data at softmax temperatures ρ ∈ {1.0, 0.5, 0.1}.
//!
//! Usage: `cargo run --release -p fedft-bench --bin fig1_entropy [-- --profile fast|paper]`

use fedft_bench::experiments::entropy_fig;
use fedft_bench::{output, ExperimentProfile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let profile = ExperimentProfile::from_args();
    println!(
        "Figure 1 — entropy distribution (profile: {})",
        profile.name
    );
    let result = entropy_fig::run(&profile, &[1.0, 0.5, 0.1])?;
    let table = result.to_table();
    output::print_table(
        &format!(
            "Figure 1 — entropy histograms over {} client samples",
            result.client_samples
        ),
        &table,
    );
    let path = output::write_table_csv("fig1_entropy", &table)?;
    println!("wrote {}", path.display());
    Ok(())
}
