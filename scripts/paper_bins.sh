#!/usr/bin/env bash
# Runs every paper binary (one per `crates/bench/src/bin/*.rs`, globbed so a
# new binary is never left out) at one profile, each with <dir> as its working
# directory: its CSVs land in <dir>/results/ and its stdout in
# <dir>/<bin>.stdout. Stops at the first binary that exits non-zero.
#
#   scripts/paper_bins.sh <profile> <dir>
#
# Two such directories, written by two builds, compare with `diff -r`.
set -euo pipefail

if [ "$#" -ne 2 ]; then
    sed -n '2,8p' "$0" >&2
    exit 2
fi
profile="$1"
mkdir -p "$2"
dir="$(cd "$2" && pwd)"

cd "$(dirname "$0")/.."
cargo build --release -q -p fedft-bench --bins
release="$(realpath "${CARGO_TARGET_DIR:-target}")/release"

for path in crates/bench/src/bin/*.rs; do
    bin="$(basename "${path%.rs}")"
    echo "paper_bins: $bin --profile $profile" >&2
    (cd "$dir" && "$release/$bin" --profile "$profile" > "$bin.stdout")
done
