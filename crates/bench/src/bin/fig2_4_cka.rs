//! Regenerates Figures 2–4: CKA similarity across client-updated models at
//! three layer depths, with and without pretraining, for Diri(0.1) and
//! Diri(0.5).
//!
//! Usage: `cargo run --release -p fedft-bench --bin fig2_4_cka [-- --profile fast|paper]`

use fedft_analysis::Table;
use fedft_bench::experiments::cka_fig;
use fedft_bench::{output, ExperimentProfile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let profile = ExperimentProfile::from_args();
    println!("Figures 2-4 — CKA similarity (profile: {})", profile.name);
    let result = cka_fig::run(&profile, &[0.1, 0.5])?;

    // Figure 4: mean off-diagonal CKA per (alpha, pretrained, block).
    let summary = result.to_table();
    output::print_table("Figure 4 — averaged CKA similarity", &summary);
    output::write_table_csv("fig4_cka_mean", &summary)?;

    // Figures 2 and 3: the full pairwise matrices.
    let mut matrices = Table::new(vec![
        "alpha".into(),
        "pretrained".into(),
        "block".into(),
        "client_i".into(),
        "client_j".into(),
        "cka".into(),
    ]);
    for cell in &result.cells {
        for (i, row) in cell.matrix.iter().enumerate() {
            for (j, &value) in row.iter().enumerate() {
                matrices.add_row(vec![
                    format!("{}", cell.alpha),
                    cell.pretrained.to_string(),
                    cell.block.clone(),
                    i.to_string(),
                    j.to_string(),
                    format!("{value:.4}"),
                ])?;
            }
        }
    }
    let path = output::write_table_csv("fig2_3_cka_matrices", &matrices)?;
    println!("wrote {}", path.display());
    Ok(())
}
