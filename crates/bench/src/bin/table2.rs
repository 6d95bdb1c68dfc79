//! Regenerates Table II plus the learning curves of Figure 5 and the
//! learning-efficiency points of Figure 6 (close-domain evaluation, 10
//! clients, full participation).
//!
//! Usage: `cargo run --release -p fedft-bench --bin table2 [-- --profile fast|paper]`

use fedft_bench::experiments::table2;
use fedft_bench::scenario::{self, Scenario};
use fedft_bench::{output, ExperimentProfile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let profile = ExperimentProfile::from_args();
    println!("Table II / Figures 5-6 (profile: {})", profile.name);
    let scenarios = table2::run(&profile)?;
    let main_table = scenario::accuracy_table(&scenarios, Scenario::heading, "Centralised");
    output::print_table(
        "Table II — global model top-1 accuracy (%), 10 clients, Pds = 10%",
        &main_table,
    );
    let efficiency = scenario::efficiency_table(&scenarios, true);
    output::print_table("Figure 6 — learning efficiency", &efficiency);

    for (name, table) in [
        ("table2", &main_table),
        ("fig5_learning_curves", &scenario::curves_table(&scenarios)),
        ("fig6_efficiency", &efficiency),
    ] {
        let path = output::write_table_csv(name, table)?;
        println!("wrote {}", path.display());
    }
    Ok(())
}
