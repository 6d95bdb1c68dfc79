#!/usr/bin/env bash
# Alternating parent/change pairs of one end-to-end workload — the loop behind
# every performance claim in CHANGES.md (the rule is in ROADMAP "Standing
# constraints": at least ten pairs, the change ahead in nine tenths of them,
# medians further apart than the parent's quartile distance, same history).
#
#   scripts/ab_pairs.sh <parent-bin> <change-bin> <workload> <pairs> [harness args…]
#
# The two binaries are `benchmarks/e2e` builds (`fedft-e2e-bench`) of the
# parent commit and of the change, built once each *at the same path* and
# copied aside (two paths give two function layouts; see ROADMAP "Standing
# constraints"). Each pair runs both with `--workload <workload> --trace 0
# [harness args…]`; odd pairs run the parent first, even pairs the change
# first. Run it from a scratch directory. Example:
#
#   scripts/ab_pairs.sh /root/scratch/bin/parent /root/scratch/bin/change \
#       logical_pool 10 --seed 11 --seconds 20
#
# Prints every run, then per end-to-end metric and side the median, quartiles
# and range, how many pairs the change won (ties count for neither), the
# median's relative move and the parent's quartile distance it has to exceed.
# The verdict is the reader's; the exit status only says whether the runs are
# comparable at all: non-zero when a run fails or when `history_checksum`,
# `dropped` or `failed` differ between any two runs.
set -euo pipefail

if [ "$#" -lt 4 ]; then
    sed -n '2,7p' "$0" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 pairs=$4
shift 4
harness_args=("$@")

root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# "metric lower|higher" for every end-to-end metric BENCHMARK.json declares.
awk '/"end_to_end"/ { inside = 1 } /"per_layer"/ { inside = 0 }
     inside && /"name"/ { gsub(/[",]/, ""); name = $2 }
     inside && /"better"/ { gsub(/[",]/, ""); print name, $2 }' \
    "$root/BENCHMARK.json" > "$tmp/better"
if [ ! -s "$tmp/better" ]; then
    echo "cannot read the end_to_end metrics of $root/BENCHMARK.json" >&2
    exit 2
fi

# One run: appends "side pair metric value" lines and one identity line.
run_side() {
    local side=$1 bin=$2 pair=$3 out="$tmp/$1.$3.out"
    if ! "$bin" --workload "$workload" --trace 0 ${harness_args[@]+"${harness_args[@]}"} \
        > "$out" 2> "$tmp/stderr"; then
        echo "pair $pair: the $side run failed" >&2
        cat "$out" "$tmp/stderr" >&2
        exit 1
    fi
    awk -v side="$side" -v pair="$pair" '
        /^  attempted / { exit }
        /^  [a-z_]+ +[-+0-9.eE]+ / { print side, pair, $1, $2 }' "$out" >> "$tmp/values"
    local identity
    identity=$(grep -o 'failed [0-9]* dropped [0-9]* history_checksum [0-9a-f]*' "$out")
    echo "$side $pair $identity" >> "$tmp/identity"
    echo "pair $pair $side: $(awk -v side="$side" -v pair="$pair" \
        '$1 == side && $2 == pair { printf "%s=%s ", $3, $4 }' "$tmp/values")| $identity"
}

echo "workload $workload, $pairs pairs, harness args: ${harness_args[*]:-none}"
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run_side parent "$parent" "$pair"
        run_side change "$change" "$pair"
    else
        run_side change "$change" "$pair"
        run_side parent "$parent" "$pair"
    fi
done

if [ "$(cut -d' ' -f3- "$tmp/identity" | sort -u | wc -l)" -ne 1 ]; then
    echo "NOT COMPARABLE: history_checksum, dropped or failed differ between runs:" >&2
    cat "$tmp/identity" >&2
    exit 1
fi
echo
echo "identical on all $((2 * pairs)) runs: $(head -n 1 "$tmp/identity" | cut -d' ' -f3-)"

# "median q1 q3 min max" of one side's values of one metric (quartiles by
# linear interpolation between order statistics).
summary() {
    awk -v side="$1" -v metric="$2" '$1 == side && $3 == metric { print $4 }' "$tmp/values" |
        sort -g |
        awk '{ v[NR] = $1 }
             function q(p,   h, lo) {
                 h = 1 + (NR - 1) * p; lo = int(h)
                 return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
             }
             END { printf "%.6g %.6g %.6g %.6g %.6g", q(0.5), q(0.25), q(0.75), v[1], v[NR] }'
}

printf '\n%-16s %-7s %12s %12s %12s %12s %12s\n' metric side median q1 q3 min max
while read -r metric better; do
    grep -q " $metric " "$tmp/values" || continue
    read -r p_med p_q1 p_q3 p_min p_max <<< "$(summary parent "$metric")"
    read -r c_med c_q1 c_q3 c_min c_max <<< "$(summary change "$metric")"
    printf '%-16s %-7s %12s %12s %12s %12s %12s\n' \
        "$metric" parent "$p_med" "$p_q1" "$p_q3" "$p_min" "$p_max" \
        "" change "$c_med" "$c_q1" "$c_q3" "$c_min" "$c_max"
    awk -v metric="$metric" -v better="$better" -v pairs="$pairs" \
        -v p_med="$p_med" -v c_med="$c_med" -v p_q1="$p_q1" -v p_q3="$p_q3" '
        $3 == metric { value[$1, $2] = $4 }
        END {
            for (pair = 1; pair <= pairs; pair++) {
                p = value["parent", pair]; c = value["change", pair]
                if (p == c) ties++
                else if ((better == "lower") == (c < p)) won++
            }
            move = p_med == 0 ? 0 : 100 * (c_med - p_med) / p_med
            printf "%-16s change ahead in %d of %d pairs (%d ties), %s is better; median moved %+.1f%%, by %.6g against a parent quartile distance of %.6g\n\n",
                "", won, pairs, ties, better, move, c_med - p_med, p_q3 - p_q1
        }' "$tmp/values"
done < "$tmp/better"
