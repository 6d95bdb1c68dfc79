//! Regenerates Table III plus Figures 7, 8 and 9 (the 100-client straggler
//! scenario), in all three straggler models: the paper's fixed participation
//! fractions, the emergent variant (a two-tier device mix under a calibrated
//! round deadline produces the stragglers by itself), and the async
//! bounded-staleness lineup (rounds overlap instead of dropping stragglers,
//! swept over `max_staleness`).
//!
//! Usage: `cargo run --release -p fedft-bench --bin table3 [-- --profile fast|paper]`

use fedft_bench::experiments::table3;
use fedft_bench::scenario::{self, Scenario};
use fedft_bench::{output, setup, ExperimentProfile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let profile = ExperimentProfile::from_args();
    println!(
        "Table III / Figures 7-9 (profile: {}, {} clients)",
        profile.name, profile.clients_large
    );

    let worlds = setup::image_worlds(&profile)?;
    let accuracy_table =
        |scenarios: &[Scenario]| scenario::accuracy_table(scenarios, Scenario::heading, "");

    let scenarios = table3::run(&worlds)?;
    let main_table = accuracy_table(&scenarios);
    output::print_table(
        "Table III — top-1 accuracy (%) with fixed-fraction stragglers",
        &main_table,
    );
    let efficiency = scenario::efficiency_table(&scenarios, false);
    output::print_table("Figure 7 — learning efficiency (large pool)", &efficiency);
    for (name, table) in [
        ("table3", &main_table),
        ("fig7_efficiency", &efficiency),
        (
            "fig8_9_learning_curves",
            &scenario::curves_table(&scenarios),
        ),
    ] {
        let path = output::write_table_csv(name, table)?;
        println!("wrote {}", path.display());
    }

    let scenarios = table3::run_emergent(&worlds)?;
    let main_table = accuracy_table(&scenarios);
    output::print_table(
        "Table III (emergent) — two-tier device mix under a round deadline",
        &main_table,
    );
    let participation = scenario::participation_table(&scenarios);
    output::print_table(
        "Emergent straggler participation (mean clients / drops / wall clock)",
        &participation,
    );
    for (name, table) in [
        ("table3_emergent", &main_table),
        ("table3_emergent_participation", &participation),
    ] {
        let path = output::write_table_csv(name, table)?;
        println!("wrote {}", path.display());
    }

    let scenarios = table3::run_async(&worlds)?;
    let main_table = accuracy_table(&scenarios);
    output::print_table(
        "Table III (async) — accuracy vs max_staleness, two-tier mix",
        &main_table,
    );
    let staleness = scenario::staleness_table(&scenarios);
    output::print_table(
        "Async staleness (mean / max / stale updates / wall clock)",
        &staleness,
    );
    for (name, table) in [
        ("table3_async", &main_table),
        ("table3_async_staleness", &staleness),
    ] {
        let path = output::write_table_csv(name, table)?;
        println!("wrote {}", path.display());
    }
    Ok(())
}
