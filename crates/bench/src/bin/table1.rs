//! Regenerates Table I: pretraining improves FedAvg on the downstream task.
//!
//! Usage: `cargo run --release -p fedft-bench --bin table1 [-- --profile fast|paper]`

use fedft_bench::experiments::table1;
use fedft_bench::{output, ExperimentProfile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let profile = ExperimentProfile::from_args();
    println!("Table I (profile: {})", profile.name);
    let table = table1::run(&profile)?.to_table();
    output::print_table(
        "Table I — top-1 accuracy (%) of FedAvg on CIFAR-10-like",
        &table,
    );
    let path = output::write_table_csv("table1", &table)?;
    println!("wrote {}", path.display());
    Ok(())
}
