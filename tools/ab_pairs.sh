#!/usr/bin/env bash
# Alternating parent / change pairs of the repository benchmark: how a
# performance change is judged (README, "how a perf change is judged").
#
#   tools/ab_pairs.sh <parent-rev> <workload>... [--change <rev>] [--pairs N] [--layer <metric>...]
#
# Both sides are made and run alike. The parent revision and the change
# (the working tree's tracked and unignored files, or `--change <rev>`)
# are each exported to ${TMPDIR:-/tmp}/hemelb_ab_pairs/src, outside the
# repository (cargo reads `.cargo/config.toml` from every directory
# above the one it runs in, so an export nested in this tree would
# build with this tree's flags), and built there in turn as
# benchmark/run.sh builds, under one fixed environment. Each binary then
# runs as run.sh runs it, from .../hemelb_ab_pairs/{parent,change}
# (paths of one length). `--change <parent-rev>` is the A/A check of
# the instrument itself: one commit against itself, which should build
# to identical binaries. Both sides must carry the same benchmark, so
# the script refuses to run if benchmark/ or BENCHMARK.json differ
# between the two, and names the paths that do.
# Pair k runs every workload once per side at seed k for the run length
# BENCHMARK.json fixes, the side that goes first flipping from pair to
# pair (the box drifts 10-20 % within the hour). For every (end-to-end
# metric, workload) it prints both medians, both quartile pairs, in how
# many pairs the change read better, and the median and [min, max] of
# the per-pair change/parent ratio, which the hour's drift moves far
# less than either side's quartiles; every run is kept in
# ${TMPDIR:-/tmp}/hemelb_ab_pairs/runs.tsv.
#
# With `--layer`, the same pairs run traced (`--trace 1`, a CPU per
# rank) and the table is of the named per-layer metrics instead, so a
# layer target is judged on pairs like the end-to-end claim, not on one
# traced run. The gated metrics are untraced figures: claim them from a
# run without `--layer`.
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

pairs=10
change=
args=()
layers=()
while (($#)); do
    case $1 in
    --pairs) pairs=$2; shift 2 ;;
    --change) change=$(git rev-parse --verify "$2^{commit}"); shift 2 ;;
    --layer)
        shift
        while (($#)) && [[ $1 != -* ]]; do layers+=("$1"); shift; done ;;
    -h | --help) sed -n '2,33s/^# \{0,1\}//p' "$0"; exit 0 ;;
    *) args+=("$1"); shift ;;
    esac
done
if ((${#args[@]} < 2)) || ! [[ $pairs =~ ^[1-9][0-9]*$ ]]; then
    echo "usage: tools/ab_pairs.sh <parent-rev> <workload>... [--change <rev>] [--pairs N] [--layer <metric>...]" >&2
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

if [[ -n $change ]]; then
    differ=$(git diff --name-only "$rev" "$change" -- benchmark BENCHMARK.json)
else
    differ=$(git diff --name-only "$rev" -- benchmark BENCHMARK.json
        git ls-files --others --exclude-standard -- benchmark)
fi
if [[ -n $differ ]]; then
    echo "ab_pairs: these paths differ from $rev; both sides must run the same benchmark:" >&2
    sed 's/^/  /' <<<"$differ" >&2
    exit 1
fi

work=${TMPDIR:-/tmp}/hemelb_ab_pairs
mkdir -p "$work"
work=$(cd "$work" && pwd -P)
if [[ $work/ == "$(pwd -P)"/* ]]; then
    echo "ab_pairs: the export $work is inside the repository; point TMPDIR elsewhere" >&2
    exit 2
fi

# The one environment both sides build and run under.
clean_env() {
    env -i HOME="$HOME" PATH="$PATH" ${CARGO_HOME:+CARGO_HOME="$CARGO_HOME"} \
        ${RUSTUP_HOME:+RUSTUP_HOME="$RUSTUP_HOME"} "$@"
}

# build_side <side> [<rev>]: that revision, or the working tree, built
# as benchmark/run.sh builds it, its binary kept as
# $work/<side>/hemelb-benchmark. Both sides build in one directory,
# $work/src, into one target directory, one after the other: rustc's
# output depends on where the sources lie, so sides built in two
# directories differ in code layout as well as in what they change. A
# side whose files are unchanged since the last run keeps its binary;
# any other builds from nothing (cargo judges freshness by file times,
# which an export does not advance).
build_side() {
    local dir=$work/$1 tar=$work/src.tar sum
    if (($# > 1)); then
        git archive --format=tar "$2" >"$tar"
    else
        git ls-files -z --cached --others --exclude-standard |
            while IFS= read -r -d '' f; do if [[ -e $f ]]; then printf '%s\0' "$f"; fi; done |
            tar --null -T - --sort=name --mtime=@0 --owner=0 --group=0 --numeric-owner -cf "$tar"
    fi
    sum=$(sha1sum <"$tar")
    if [[ ! -x $dir/hemelb-benchmark || $(cat "$dir/sum" 2>/dev/null) != "$sum" ]]; then
        rm -rf "$work/src" "$work/target" "$dir"
        mkdir -p "$work/src" "$dir"
        tar -x -C "$work/src" -f "$tar"
        (cd "$work/src" && clean_env CARGO_TARGET_DIR="$work/target" \
            cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
        cp "$work/target/release/hemelb-benchmark" "$dir/"
        echo "$sum" >"$dir/sum"
    fi
    rm -f "$tar"
}

echo "building parent $(git rev-parse --short "$rev") and the change ${change:+$(git rev-parse --short "$change")} ..." >&2
build_side parent "$rev"
build_side change ${change:+"$change"}
if cmp -s "$work/parent/hemelb-benchmark" "$work/change/hemelb-benchmark"; then
    echo "the two sides' binaries are identical" >&2
fi

seconds=$(jq -r .run_seconds BENCHMARK.json)
# bench <side> <benchmark arguments>: that side's binary, run as
# benchmark/run.sh runs it, from $work/<side> (both paths of one length).
bench() {
    local side=$1
    shift
    (cd "$work/$side" && clean_env MALLOC_ARENA_MAX=1 ./hemelb-benchmark "$@")
}
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
function sortmed(n,    i, j, tmp) {
    # Sort s[1..n] in place and return its median.
    for (i = 2; i <= n; i++) { tmp = s[i]; for (j = i - 1; j >= 1 && s[j] > tmp; j--) s[j + 1] = s[j]; s[j + 1] = tmp }
    return (n % 2) ? s[(n + 1) / 2] : (s[n / 2] + s[n / 2 + 1]) / 2
}
function quart(side, key, n,    i) {
    # Sorted values of (side, key) into s[1..n]; nearest-rank quartiles.
    for (i = 1; i <= n; i++) s[i] = val[side, key, i]
    med = sortmed(n)
    q1 = s[int((n + 3) / 4)]; q3 = s[int((3 * n + 3) / 4)]
}
function ratio(key, n,    i, m, r) {
    # Median [min, max] of change/parent over the pairs with a nonzero parent.
    for (i = 1; i <= n; i++) if (val["parent", key, i] != 0) s[++m] = val["change", key, i] / val["parent", key, i]
    if (!m) return "  ratio n/a"
    r = sortmed(m)
    return sprintf("  ratio %.3f [%.3f, %.3f]", r, s[1], s[m])
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
    printf "%-24s %-16s %30s %30s  %s\n", "metric", "workload", "parent median [q1, q3]", "change median [q1, q3]", "change wins, change/parent median [min, max]"
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
        printf "  %+.1f %%%s%s\n", 100 * (med - pm) / pm, (gap > p3 - p1) ? "" : "  (inside the parent interquartile distance)", ratio(key, pairs)
    }
}' "$work/better.tsv" "$runs"
