#!/usr/bin/env bash
# Alternating parent / change pairs of the repository benchmark: how a
# performance change is judged (README, "how a perf change is judged").
#
#   tools/ab_pairs.sh <parent-rev> <workload>... [--pairs N] [--layer <metric>...]
#
# The parent is exported (`git archive`) into
# ${TMPDIR:-/tmp}/hemelb_ab_pairs/parent and built into
# target/ab_pairs/build; the change is the working tree, built into
# target/. The export must live outside the repository: cargo reads
# `.cargo/config.toml` from every directory above the one it runs in, so
# a parent nested in this tree would build with the change's compiler
# flags (its `target-cpu`, say), and the pairs would compare the change
# with itself. Both sides must carry the same benchmark, so the
# script refuses to run if benchmark/ or BENCHMARK.json differ between
# the two trees, and names the paths that do. A benchmark build
# rewrites benchmark/Cargo.lock; the committed file is put back on exit.
# Pair k runs every workload once per side at seed k for
# the run length BENCHMARK.json fixes, the side that goes first flipping
# from pair to pair (the box drifts 10-20 % within the hour). For every
# (end-to-end metric, workload) it prints both medians, both quartile
# pairs and in how many pairs the change read better; every run is kept
# in target/ab_pairs/runs.tsv.
#
# With `--layer`, the same pairs run traced (`--trace 1`, a CPU per
# rank) and the table is of the named per-layer metrics instead, so a
# layer target is judged on pairs like the end-to-end claim, not on one
# traced run. The gated metrics are untraced figures: claim them from a
# run without `--layer`.
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
root=$PWD

pairs=10
args=()
layers=()
while (($#)); do
    case $1 in
    --pairs) pairs=$2; shift 2 ;;
    --layer)
        shift
        while (($#)) && [[ $1 != -* ]]; do layers+=("$1"); shift; done ;;
    -h | --help) sed -n '2,29s/^# \{0,1\}//p' "$0"; exit 0 ;;
    *) args+=("$1"); shift ;;
    esac
done
if ((${#args[@]} < 2)) || ! [[ $pairs =~ ^[1-9][0-9]*$ ]]; then
    echo "usage: tools/ab_pairs.sh <parent-rev> <workload>... [--pairs N] [--layer <metric>...]" >&2
    exit 2
fi
# Which metrics the table is of, and the regime they are measured in.
trace=0 judged=end_to_end progress=op_ms_p10
if ((${#layers[@]})); then
    trace=1 judged=per_layer progress=${layers[0]}
    for m in "${layers[@]}"; do
        jq -e --arg m "$m" 'any(.per_layer[]; .name == $m)' BENCHMARK.json >/dev/null ||
            { echo "ab_pairs: BENCHMARK.json has no per-layer metric '$m'" >&2; exit 2; }
    done
fi
rev=$(git rev-parse --verify "${args[0]}^{commit}")
workloads=("${args[@]:1}")
for w in "${workloads[@]}"; do
    jq -e --arg w "$w" 'any(.workloads[]; .name == $w)' BENCHMARK.json >/dev/null ||
        { echo "ab_pairs: BENCHMARK.json has no workload '$w'" >&2; exit 2; }
done

differ=$(git diff --name-only "$rev" -- benchmark BENCHMARK.json
    git ls-files --others --exclude-standard -- benchmark)
if [[ -n $differ ]]; then
    echo "ab_pairs: these paths differ from $rev; both sides must run the same benchmark:" >&2
    sed 's/^/  /' <<<"$differ" >&2
    exit 1
fi
# A benchmark build rewrites benchmark/Cargo.lock (it drops stale
# entries); put the committed file back on the way out so the next run's
# check above still passes. Only a lock this script found clean is
# restored.
lock=benchmark/Cargo.lock
if git diff --quiet HEAD -- "$lock"; then
    trap 'git diff --quiet HEAD -- "$lock" || git checkout -q HEAD -- "$lock"' EXIT
fi

work=$root/target/ab_pairs
parent=${TMPDIR:-/tmp}/hemelb_ab_pairs/parent
rm -rf "$parent"
mkdir -p "$work" "$parent"
parent=$(cd "$parent" && pwd -P)
if [[ $parent/ == "$(pwd -P)"/* ]]; then
    echo "ab_pairs: the parent export $parent is inside the repository; point TMPDIR elsewhere" >&2
    exit 2
fi
git archive "$rev" | tar -x -C "$parent"

seconds=$(jq -r .run_seconds BENCHMARK.json)
# bench <side> <benchmark arguments>: that side's benchmark/run.sh.
bench() {
    local tree=$root target=$root/target
    [[ $1 == parent ]] && tree=$parent target=$work/build
    shift
    CARGO_TARGET_DIR=$target bash "$tree/benchmark/run.sh" "$@"
}

echo "building parent $(git rev-parse --short "$rev") and the working tree ..." >&2
for side in parent change; do bench "$side" --quick --workload "${workloads[0]}" >/dev/null; done

runs=$work/runs.tsv
: >"$runs"
for ((k = 1; k <= pairs; k++)); do
    order=(parent change)
    ((k % 2 == 0)) && order=(change parent)
    for w in "${workloads[@]}"; do
        for side in "${order[@]}"; do
            bench "$side" --workload "$w" --seed "$k" --seconds "$seconds" --trace "$trace" | tail -n 1 |
                jq -r --arg k "$k" --arg s "$side" --arg w "$w" '
                (.metrics | to_entries[] | [$k, $s, $w, .key, .value.value]),
                [$k, $s, $w, "failed", .failed] | @tsv' >>"$runs"
        done
        echo "pair $k/$pairs $w $progress: $(awk -F'\t' -v k="$k" -v w="$w" -v m="$progress" \
            '$1 == k && $3 == w && $4 == m { printf "%s %s  ", $2, $5 }' "$runs")" >&2
    done
done

# Direction of each judged metric, then the table.
jq -r --arg j "$judged" --args '.[$j][] | select($j == "end_to_end" or IN(.name; $ARGS.positional[]))
    | [.name, .better] | @tsv' "${layers[@]}" <BENCHMARK.json >"$work/better.tsv"
awk -F'\t' '
function quart(side, key, n,    i, j, tmp) {
    # Sorted values of (side, key) into s[1..n]; nearest-rank quartiles.
    for (i = 1; i <= n; i++) s[i] = val[side, key, i]
    for (i = 2; i <= n; i++) { tmp = s[i]; for (j = i - 1; j >= 1 && s[j] > tmp; j--) s[j + 1] = s[j]; s[j + 1] = tmp }
    q1 = s[int((n + 3) / 4)]; q3 = s[int((3 * n + 3) / 4)]
    med = (n % 2) ? s[(n + 1) / 2] : (s[n / 2] + s[n / 2 + 1]) / 2
}
FNR == NR { better[$1] = $2; next }
!($4 in better) && $4 != "failed" { next }
{
    key = $4 SUBSEP $3
    if (!(key in seen)) { seen[key] = 1; keys[++nkeys] = key }
    val[$2, key, $1] = $5
    if ($1 > pairs) pairs = $1
}
END {
    printf "%-24s %-16s %30s %30s  %s\n", "metric", "workload", "parent median [q1, q3]", "change median [q1, q3]", "change wins"
    for (m = 1; m <= nkeys; m++) {
        key = keys[m]; split(key, part, SUBSEP)
        if (part[1] == "failed") {
            fp = fc = 0
            for (i = 1; i <= pairs; i++) { fp += val["parent", key, i]; fc += val["change", key, i] }
            printf "%-24s %-16s %30d %30d  (failed checks, summed)\n", part[1], part[2], fp, fc
            continue
        }
        wins = ties = 0
        for (i = 1; i <= pairs; i++) {
            p = val["parent", key, i]; c = val["change", key, i]
            if (p == c) ties++
            else if ((better[part[1]] == "higher") == (c > p)) wins++
        }
        quart("parent", key, pairs); pm = med; p1 = q1; p3 = q3
        quart("change", key, pairs)
        printf "%-24s %-16s %12.4g [%.4g, %.4g] %12.4g [%.4g, %.4g]  %d/%d", part[1], part[2], pm, p1, p3, med, q1, q3, wins, pairs
        if (ties) printf " (%d ties)", ties
        gap = (med > pm) ? med - pm : pm - med
        printf "  %+.1f %%%s\n", 100 * (med - pm) / pm, (gap > p3 - p1) ? "" : "  (inside the parent interquartile distance)"
    }
}' "$work/better.tsv" "$runs"
