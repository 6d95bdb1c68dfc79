//! Regenerates Table IV: cross-domain evaluation on the speech-commands-like
//! task with pretraining on the image-family source domain.
//!
//! Usage: `cargo run --release -p fedft-bench --bin table4 [-- --profile fast|paper]`

use fedft_bench::experiments::table4;
use fedft_bench::{output, scenario, ExperimentProfile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let profile = ExperimentProfile::from_args();
    println!("Table IV (profile: {})", profile.name);
    let result = table4::run(&profile)?;
    let table = scenario::accuracy_table(
        std::slice::from_ref(&result),
        |_| "Top-1 Acc".into(),
        "Centralised learning",
    );
    output::print_table(
        &format!(
            "Table IV — top-1 accuracy (%) on GSC-like, Diri({})",
            result.alpha
        ),
        &table,
    );
    let path = output::write_table_csv("table4", &table)?;
    println!("wrote {}", path.display());
    Ok(())
}
