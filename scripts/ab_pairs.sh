#!/usr/bin/env bash
# Alternating parent/change pairs of one dilos_perf workload — step 3 of the
# claim protocol in crates/bench/src/bin/dilos_perf/README.md.
#
# usage: scripts/ab_pairs.sh <workload> <pairs> <seconds> <seed> [base]
#
# Builds the base commit (default: HEAD when the working tree has
# uncommitted changes, HEAD~1 when it is clean) and the working tree, each
# once, into separate target directories with identical settings. Then runs
# `pairs` pairs, swapping which side goes first every pair, and prints:
#   - each pair's two values and which side won;
#   - the change's win count;
#   - both medians, their ratio, and the base's interquartile range;
#   - whether the claim rule holds (wins >= 9/10 of the pairs and a
#     median gap larger than the base's IQR);
#   - whether every run's sim_fingerprint matched.
#
# Environment:
#   METRIC   end-to-end metric to compare (default ops_per_s)
#   BETTER   higher | lower (default higher)
#   AB_DIR   work directory for sources, builds and logs (default: mktemp -d)
set -euo pipefail

if [ "$#" -lt 4 ] || [ "$#" -gt 5 ]; then
    echo "usage: $0 <workload> <pairs> <seconds> <seed> [base]" >&2
    exit 2
fi
workload=$1 pairs=$2 seconds=$3 seed=$4
metric=${METRIC:-ops_per_s}
better=${BETTER:-higher}
root=$(git rev-parse --show-toplevel)
if [ "$#" -eq 5 ]; then
    base=$5
elif [ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]; then
    base=HEAD
else
    base=HEAD~1
fi
base_rev=$(git -C "$root" rev-parse --short "$base")
dir=${AB_DIR:-$(mktemp -d)}
rm -rf "$dir/base-src" "$dir/logs"
mkdir -p "$dir/base-src" "$dir/logs"
echo "base $base_rev vs working tree; $workload, $pairs pairs of ${seconds} s, seed $seed; work dir $dir"

# The base as a plain export: no worktree registration is left behind.
git -C "$root" archive "$base_rev" | tar -x -C "$dir/base-src"
build() { # <source root> <target dir>
    cargo build --release --locked --quiet \
        --manifest-path "$1/crates/bench/src/bin/dilos_perf/Cargo.toml" \
        --target-dir "$2"
}
build "$dir/base-src" "$dir/target-base"
build "$root" "$dir/target-change"

run() { # <side> <pair>
    local log="$dir/logs/$1-$2.jsonl"
    "$dir/target-$1/release/dilos_perf" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 > "$log"
    jq -r --arg m "$metric" 'select(.metrics) | .metrics[$m].value' "$log"
}

base_vals=() change_vals=() wins=0
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        b=$(run base "$i"); c=$(run change "$i")
    else
        c=$(run change "$i"); b=$(run base "$i")
    fi
    base_vals+=("$b") change_vals+=("$c")
    if [ "$better" = lower ]; then won=$(jq -n "$c < $b"); else won=$(jq -n "$c > $b"); fi
    [ "$won" = true ] && wins=$((wins + 1))
    printf 'pair %2d: base %14.6g  change %14.6g  ratio %.4f  %s\n' \
        "$i" "$b" "$c" "$(jq -n "$c / $b")" "$([ "$won" = true ] && echo win || echo loss)"
done

jq -n -r \
    --argjson base "[$(IFS=,; echo "${base_vals[*]}")]" \
    --argjson change "[$(IFS=,; echo "${change_vals[*]}")]" \
    --argjson wins "$wins" --arg better "$better" --arg metric "$metric" '
    # Linear interpolation between closest ranks.
    def q($p): sort | ((length - 1) * $p) as $h | ($h | floor) as $lo
        | .[$lo] + ($h - $lo) * (.[($h | ceil)] - .[$lo]);
    ($base | q(0.5)) as $mb | ($change | q(0.5)) as $mc
    | (($base | q(0.75)) - ($base | q(0.25))) as $iqr
    | (if $better == "lower" then $mb - $mc else $mc - $mb end) as $gap
    | "\($metric): change won \($wins)/\($base | length)",
      "median base \($mb)  change \($mc)  ratio \($mc / $mb)",
      "base IQR \($iqr); median gap in the better direction \($gap)",
      "claim rule (>= 9/10 wins and gap > IQR): \(
        if $wins * 10 >= 9 * ($base | length) and $gap > $iqr then "met" else "not met" end)"'

fingerprints=$(cat "$dir"/logs/*.jsonl | jq -r 'select(.sim_fingerprint) | .sim_fingerprint' | sort -u)
if [ "$(echo "$fingerprints" | wc -l)" -eq 1 ]; then
    echo "sim_fingerprint: all $((2 * pairs)) runs $fingerprints"
else
    echo "sim_fingerprint: DIFFERS across runs:"
    for f in "$dir"/logs/*.jsonl; do
        echo "  $(basename "$f" .jsonl) $(jq -r 'select(.sim_fingerprint) | .sim_fingerprint' "$f")"
    done
    exit 1
fi
