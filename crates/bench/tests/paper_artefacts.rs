//! Every paper binary at the tiny profile, its CSVs and stdout pinned byte
//! for byte.
//!
//! Each binary runs in a fresh working directory (the pattern of
//! `entry_points.rs`), and every artefact it writes is hashed with 64-bit
//! FNV-1a and compared with a literal. The pin guards code paths and
//! formatting, not science: `tiny` accuracies are near chance. A change that
//! moves an artefact on purpose says so and re-pins it, as a golden-history
//! digest move does; the `fast` and `paper` profiles are compared by hand
//! (`scripts/paper_bins.sh` on two builds, then `diff -r`).

use std::path::PathBuf;
use std::process::Command;

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A fresh, empty working directory for one binary.
fn fresh_dir(bin: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fedft-paper-artefacts-{}-{bin}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `exe` at the tiny profile in a fresh directory and checks its stdout
/// and each CSV in `results/` against `(file name, digest)` pairs. The CSVs
/// listed must be exactly the ones written.
fn check(bin: &str, exe: &str, stdout: u64, csvs: &[(&str, u64)]) {
    let dir = fresh_dir(bin);
    let output = Command::new(exe)
        .args(["--profile", "tiny"])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{bin} exited {:?}: {}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(fnv1a(&output.stdout), stdout, "{bin}: stdout moved");

    let mut written: Vec<String> = std::fs::read_dir(dir.join("results"))
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    written.sort();
    let mut expected: Vec<String> = csvs.iter().map(|(name, _)| name.to_string()).collect();
    expected.sort();
    assert_eq!(written, expected, "{bin}: a different set of CSVs");
    for (name, digest) in csvs {
        let bytes = std::fs::read(dir.join("results").join(name)).unwrap();
        assert_eq!(fnv1a(&bytes), *digest, "{bin}: {name} moved");
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn fnv1a_matches_its_published_vectors() {
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
}

#[test]
fn table1() {
    check(
        "table1",
        env!("CARGO_BIN_EXE_table1"),
        0xcfa1_0d98_bd71_b68c,
        &[("table1.csv", 0x8d58_70c0_8959_2257)],
    );
}

#[test]
fn table2() {
    check(
        "table2",
        env!("CARGO_BIN_EXE_table2"),
        0x6d8e_e706_ef8a_47b6,
        &[
            ("table2.csv", 0x7c55_15f0_da91_11a7),
            ("fig5_learning_curves.csv", 0x5505_1ee3_c1c6_8303),
            ("fig6_efficiency.csv", 0xcfe2_5ad2_cdeb_3b93),
        ],
    );
}

#[test]
fn table3() {
    check(
        "table3",
        env!("CARGO_BIN_EXE_table3"),
        0x7054_6429_ae85_dbfe,
        &[
            ("table3.csv", 0x0a6b_9b8d_cfff_9eda),
            ("fig7_efficiency.csv", 0x1623_d1b1_6306_ff81),
            ("fig8_9_learning_curves.csv", 0x3bc1_dba9_8b60_db66),
            ("table3_async.csv", 0xf211_f81e_5b56_b3b9),
            ("table3_async_staleness.csv", 0x9c78_ee09_8908_6e1f),
            ("table3_emergent.csv", 0x35d2_113e_c073_8dd6),
            ("table3_emergent_participation.csv", 0xb2e1_b9b6_fb43_d809),
        ],
    );
}

#[test]
fn table4() {
    check(
        "table4",
        env!("CARGO_BIN_EXE_table4"),
        0xd387_e0a2_92ca_3b34,
        &[("table4.csv", 0xbf09_d1f8_6e0d_2e47)],
    );
}

#[test]
fn fig1_entropy() {
    check(
        "fig1_entropy",
        env!("CARGO_BIN_EXE_fig1_entropy"),
        0x9060_d7bc_3ea1_d85b,
        &[("fig1_entropy.csv", 0xb089_3f40_4321_bb46)],
    );
}

#[test]
fn fig2_4_cka() {
    check(
        "fig2_4_cka",
        env!("CARGO_BIN_EXE_fig2_4_cka"),
        0x6791_204f_fb5d_1030,
        &[
            ("fig2_3_cka_matrices.csv", 0x58d9_f541_1898_5216),
            ("fig4_cka_mean.csv", 0xc0e2_b36b_ac6f_a5c8),
        ],
    );
}

#[test]
fn fig10_ablation() {
    check(
        "fig10_ablation",
        env!("CARGO_BIN_EXE_fig10_ablation"),
        0x8680_5355_99a9_b594,
        &[
            ("fig10a_finetuned_part.csv", 0xbfd9_b16c_cfe6_4548),
            ("fig10b_heterogeneity.csv", 0xd363_78e7_d1e2_cf90),
            ("fig10c_temperature.csv", 0xd307_e119_17a7_15ff),
        ],
    );
}

#[test]
fn policy_matrix() {
    check(
        "policy_matrix",
        env!("CARGO_BIN_EXE_policy_matrix"),
        0x0159_1257_4a10_c818,
        &[
            ("policy_matrix.csv", 0xb7ac_37d2_6b3b_d1a1),
            ("policy_matrix_participation.csv", 0x66b0_fb3c_2d2f_feb4),
        ],
    );
}
