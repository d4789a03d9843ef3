#!/usr/bin/env bash
# Alternating parent/change pairs of one dilos_perf workload — step 3 of the
# claim protocol in crates/bench/src/bin/dilos_perf/README.md.
#
# usage: scripts/ab_pairs.sh <workload> <pairs> <seconds> <seed> [base]
#
# Exports the base commit (default: HEAD when the working tree has
# uncommitted changes, HEAD~1 when it is clean) and the working tree
# (tracked files plus untracked ones that are not ignored) into the sibling
# directories $AB_DIR/base and $AB_DIR/head, and builds each once with
# identical settings into $AB_DIR/target-base and $AB_DIR/target-head. Each
# side builds from inside its own export, because cargo reads
# `.cargo/config.toml` (the release profile) from the directory it runs in:
# a side built from elsewhere takes that directory's profile, not its own.
# The script prints each side's dilos_perf size, so a build setting that
# reaches only one side shows. The equal-length paths matter: the
# dependencies' absolute source paths land in the binary's .rodata, ahead of
# .text, and two builds of one source from paths of different lengths have
# differed in speed by up to 40 %. Then runs `pairs` pairs, swapping which
# side goes first every pair, and prints:
#   - each pair's two values and which side won;
#   - the change's win count;
#   - both medians, their ratio, and the base's interquartile range;
#   - whether the claim rule holds (wins >= 9/10 of the pairs and a
#     median gap larger than the base's IQR);
#   - a table of every end-to-end metric BENCHMARK.json declares: both
#     medians, their ratio, the base's IQR, the change's wins in that
#     metric's better direction, and whether the change's median stays
#     within the metric's bound of the base's;
#   - the share of failed operations on each side;
#   - whether every run's sim_fingerprint matched.
#
# With LAYOUTS=K, each side is built K times, with RUSTFLAGS="-C
# metadata=lay<i>" into $AB_DIR/target-<side>-<i> (i = 1..K), which moves
# code and data without changing the source. Pair i runs both sides' layout
# ((i - 1) mod K) + 1, and the script also prints each layout's pair count,
# base median and change/base ratio, and the spread of each side's medians
# across layouts ((max - min) / median). One layout is a sample of one.
#
# Environment:
#   METRIC   end-to-end metric to compare (default ops_per_s)
#   BETTER   higher | lower (default higher)
#   LAYOUTS  number of -C metadata layouts per side (default: one plain build)
#   AB_DIR   work directory for sources, builds and logs (default: mktemp -d);
#            it must lie outside the repository, whose .cargo/config.toml
#            cargo would otherwise also read for the base side
set -euo pipefail

if [ "$#" -lt 4 ] || [ "$#" -gt 5 ]; then
    echo "usage: $0 <workload> <pairs> <seconds> <seed> [base]" >&2
    exit 2
fi
workload=$1 pairs=$2 seconds=$3 seed=$4
metric=${METRIC:-ops_per_s}
better=${BETTER:-higher}
layouts=${LAYOUTS:-0}
root=$(git rev-parse --show-toplevel)
if [ "$#" -eq 5 ]; then
    base=$5
elif [ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]; then
    base=HEAD
else
    base=HEAD~1
fi
base_rev=$(git -C "$root" rev-parse --short "$base")
dir=$(realpath -m "${AB_DIR:-$(mktemp -d)}")
case "$dir/" in
"$(realpath "$root")/"*)
    echo "AB_DIR $dir lies inside the repository: both sides would read its .cargo/config.toml" >&2
    exit 2
    ;;
esac
rm -rf "$dir/base" "$dir/head" "$dir/logs"
mkdir -p "$dir/base" "$dir/head" "$dir/logs"
echo "base $base_rev vs working tree; $workload, $pairs pairs of ${seconds} s, seed $seed; work dir $dir"

# Both sides as plain exports: no worktree registration is left behind.
git -C "$root" archive "$base_rev" | tar -x -C "$dir/base"
git -C "$root" ls-files -z --cached --others --exclude-standard |
    (cd "$root" && while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
        tar --null -T - -cf -) | tar -x -C "$dir/head"
target() { # <side> <layout: 0 for the plain build>
    if (($2)); then echo "$dir/target-$1-$2"; else echo "$dir/target-$1"; fi
}
build() { # <side> <layout>
    local flags=${RUSTFLAGS:-}
    (($2)) && flags="$flags -C metadata=lay$2"
    (cd "$dir/$1" && RUSTFLAGS=$flags cargo build --release --locked --quiet \
        --manifest-path crates/bench/src/bin/dilos_perf/Cargo.toml \
        --target-dir "$(target "$1" "$2")")
    echo "dilos_perf $1$( (($2)) && echo " layout $2"): $(stat -c %s "$(target "$1" "$2")/release/dilos_perf") B"
}
if ((layouts)); then lays=($(seq 1 "$layouts")); else lays=(0); fi
for l in "${lays[@]}"; do
    build base "$l"
    build head "$l"
done

run() { # <side: base | head> <pair> <layout>
    local log="$dir/logs/$1-$2.jsonl"
    "$(target "$1" "$3")/release/dilos_perf" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 > "$log"
    jq -r --arg m "$metric" 'select(.metrics) | .metrics[$m].value' "$log"
}

base_vals=() change_vals=() pair_lays=() wins=0
for ((i = 1; i <= pairs; i++)); do
    l=${lays[$(((i - 1) % ${#lays[@]}))]}
    if ((i % 2)); then
        b=$(run base "$i" "$l"); c=$(run head "$i" "$l")
    else
        c=$(run head "$i" "$l"); b=$(run base "$i" "$l")
    fi
    base_vals+=("$b") change_vals+=("$c") pair_lays+=("$l")
    if [ "$better" = lower ]; then won=$(jq -n "$c < $b"); else won=$(jq -n "$c > $b"); fi
    [ "$won" = true ] && wins=$((wins + 1))
    printf 'pair %2d: base %14.6g  change %14.6g  ratio %.4f  %s%s\n' \
        "$i" "$b" "$c" "$(jq -n "$c / $b")" "$([ "$won" = true ] && echo win || echo loss)" \
        "$( ((l)) && echo "  layout $l")"
done

# Linear interpolation between closest ranks.
quantile='def q($p): sort | ((length - 1) * $p) as $h | ($h | floor) as $lo
    | .[$lo] + ($h - $lo) * (.[($h | ceil)] - .[$lo]);'
jq -n -r \
    --argjson base "[$(IFS=,; echo "${base_vals[*]}")]" \
    --argjson change "[$(IFS=,; echo "${change_vals[*]}")]" \
    --argjson wins "$wins" --arg better "$better" --arg metric "$metric" "$quantile"'
    ($base | q(0.5)) as $mb | ($change | q(0.5)) as $mc
    | (($base | q(0.75)) - ($base | q(0.25))) as $iqr
    | (if $better == "lower" then $mb - $mc else $mc - $mb end) as $gap
    | "\($metric): change won \($wins)/\($base | length)",
      "median base \($mb)  change \($mc)  ratio \($mc / $mb)",
      "base IQR \($iqr); median gap in the better direction \($gap)",
      "claim rule (>= 9/10 wins and gap > IQR): \(
        if $wins * 10 >= 9 * ($base | length) and $gap > $iqr then "met" else "not met" end)"'

if ((layouts)); then
    echo
    jq -n -r \
        --argjson base "[$(IFS=,; echo "${base_vals[*]}")]" \
        --argjson change "[$(IFS=,; echo "${change_vals[*]}")]" \
        --argjson lay "[$(IFS=,; echo "${pair_lays[*]}")]" "$quantile"'
        [$lay | unique[] as $l | [range(0; $lay | length) | select($lay[.] == $l)] as $ix
         | {l: $l, n: ($ix | length), b: ([$ix[] | $base[.]] | q(0.5)),
            c: ([$ix[] | $change[.]] | q(0.5))}] as $rows
        | def spread($side): ($rows | map(.[$side])) as $m
            | "min \($m | min)  max \($m | max)  spread \((($m | max) - ($m | min)) / ($m | q(0.5)))";
        ($rows[] | "layout \(.l): \(.n) pairs  median base \(.b)  change \(.c)  ratio \(.c / .b)"),
        "base medians across layouts: \(spread("b"))",
        "change medians across layouts: \(spread("c"))"'
fi

# Every end-to-end metric, from the same runs: one row each.
side() { # <base | head>: each pair's metrics line, in pair order
    for ((i = 1; i <= pairs; i++)); do jq -c 'select(.metrics)' "$dir/logs/$1-$i.jsonl"; done
}
echo
jq -n -r --slurpfile spec "$root/BENCHMARK.json" \
    --slurpfile base <(side base) --slurpfile change <(side head) "$quantile"'
    def share: (map(.failed) | add) / ([map(.attempted) | add, 1] | max);
    ["metric", "better", "base", "change", "ratio", "base_IQR", "wins", "bound", "within"],
    ($spec[0].end_to_end[] as $m
     | [$base[] | .metrics[$m.name].value] as $b
     | [$change[] | .metrics[$m.name].value] as $c
     | ($b | q(0.5)) as $mb | ($c | q(0.5)) as $mc
     | (if $mb == 0 then (if $mc == 0 then 1 else infinite end) else $mc / $mb end) as $r
     | [range(0; $b | length)
        | select(if $m.better == "lower" then $c[.] < $b[.] else $c[.] > $b[.] end)] as $w
     | [$m.name, $m.better, $mb, $mc, $r, (($b | q(0.75)) - ($b | q(0.25))),
        "\($w | length)/\($b | length)", $m.bound,
        (if $m.better == "lower" then $r <= 1 + $m.bound else $r >= 1 - $m.bound end
         | if . then "yes" else "NO" end)]),
    ["failed share: base \($base | share)  change \($change | share)"]
    | @tsv' | awk -F'\t' '
    NF == 1 { print; next }
    NR == 1 { printf "%-16s %-6s %14s %14s %8s %12s %6s %6s %s\n", $1, $2, $3, $4, $5, $6, $7, $8, $9; next }
    { printf "%-16s %-6s %14.6g %14.6g %8.4f %12.4g %6s %6s %s\n", $1, $2, $3, $4, $5, $6, $7, $8, $9 }'

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
