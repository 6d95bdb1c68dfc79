//! Writing experiment results to the `results/` directory.

use fedft_analysis::Table;
use std::io;
use std::path::{Path, PathBuf};

/// Directory (relative to the workspace root or current directory) where
/// experiment binaries write their CSV outputs.
pub const RESULTS_DIR: &str = "results";

/// Resolves the results directory, creating it if necessary.
///
/// # Errors
///
/// Returns an I/O error if the directory cannot be created.
fn results_dir() -> io::Result<PathBuf> {
    let dir = Path::new(RESULTS_DIR).to_path_buf();
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Writes a table as CSV under `results/<name>.csv` and returns the path.
///
/// # Errors
///
/// Returns an I/O error if the file cannot be written.
pub fn write_table_csv(name: &str, table: &Table) -> io::Result<PathBuf> {
    let path = results_dir()?.join(format!("{name}.csv"));
    std::fs::write(&path, table.to_csv())?;
    Ok(path)
}

/// Prints a table to stdout with a heading, in aligned plain text.
pub fn print_table(heading: &str, table: &Table) {
    println!("\n== {heading} ==");
    println!("{}", table.to_plain_text());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_and_read_back_csv() {
        let mut table = Table::new(vec!["a".into(), "b".into()]);
        table.add_row(vec!["1".into(), "2".into()]).unwrap();
        let path = write_table_csv("unit-test-output", &table).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("a,b"));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn print_table_does_not_panic() {
        let table = Table::new(vec!["x".into()]);
        print_table("heading", &table);
    }
}
