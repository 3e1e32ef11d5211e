#!/usr/bin/env bash
# CI for hemelb-insitu-rs, in tiers composed of stage groups:
#
#   ./ci.sh --quick        # lint + tier1: format, clippy, release
#                          #   build, root-package tests
#   ./ci.sh                # + every crate's unit tests, determinism,
#                          #   obs, render, fault-injection and
#                          #   projection suites, the `reproduce`
#                          #   smokes, the repo benchmark's --quick
#                          #   checks and the size report
#   ./ci.sh --soak         # + long soaks: golden --ignored (500 steps,
#                          #   8 threads) and the 200-step two-kill
#                          #   fault recovery
#   ./ci.sh --only GROUP   # one group (what the staged GitHub workflow
#                          #   jobs shell into)
#
# No stage compares a wall-clock time against a stored number. Timings
# live in benchmark/ (see benchmark/README.md for how a perf change is
# judged); the smokes here prove `reproduce` runs end to end and leave
# out/BENCH_*.json behind as artefacts.
#
# Each stage is timed and runs under a fixed 30-minute `timeout`, so a
# hang fails the named stage (exit 124) instead of stalling the job; a
# per-stage summary prints on exit (also on failure, so CI logs show
# where the time — or the break — went).
set -euo pipefail
cd "$(dirname "$0")"

# The single source of truth for group names: the default tier runs
# them in this order, and `--only` accepts exactly these (plus soak).
CI_GROUPS_ALL=(lint tier1 units determinism overlap faults projection smoke benchmark-quick loc)
usage_groups() { (IFS='|'; echo "${CI_GROUPS_ALL[*]}|soak"); }

TIER="full"
CI_GROUPS=("${CI_GROUPS_ALL[@]}")
case "${1:-}" in
    --quick) TIER="quick"; CI_GROUPS=(lint tier1) ;;
    --soak)  TIER="soak";  CI_GROUPS+=(soak) ;;
    --only)
        TIER="only:${2:-}"
        ok=0
        for g in "${CI_GROUPS_ALL[@]}" soak; do
            [[ "${2:-}" == "$g" ]] && ok=1
        done
        if [[ $ok -eq 1 ]]; then
            CI_GROUPS=("$2")
        else
            echo "usage: ./ci.sh --only {$(usage_groups)}" >&2; exit 2
        fi ;;
    "") ;;
    *) echo "usage: ./ci.sh [--quick|--soak|--only GROUP]  (GROUP: $(usage_groups))" >&2; exit 2 ;;
esac

STAGE_NAMES=()
STAGE_SECS=()
summary() {
    local status=$?
    echo
    echo "==> ci.sh stage timings (tier: $TIER)"
    local i total=0
    for i in "${!STAGE_NAMES[@]}"; do
        printf '    %-28s %4ss\n' "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}"
        total=$((total + STAGE_SECS[i]))
    done
    printf '    %-28s %4ss\n' "total" "$total"
    if [[ $status -eq 0 ]]; then
        echo "==> ci.sh: all green"
    else
        echo "==> ci.sh: FAILED (exit $status)" >&2
    fi
}
trap summary EXIT

stage() {
    local name=$1
    shift
    echo "==> [$name] $*"
    local t0=$SECONDS
    # The inner shell lets `timeout` run this script's (exported)
    # functions as well as programs.
    timeout 1800 bash -c '"$@"' stage "$@"
    STAGE_NAMES+=("$name")
    STAGE_SECS+=($((SECONDS - t0)))
}

# One `reproduce` experiment in release mode, end to end.
smoke() {
    local name=$1
    shift
    stage "$name-smoke" cargo run --release -q -p hemelb-bench --bin reproduce -- "$name" "$@"
}

# Format + lint; and no generated image in the index (the examples and
# `reproduce` write .ppm files into the root and out/, both ignored).
group_lint() {
    stage fmt    cargo fmt --all -- --check
    stage clippy cargo clippy --workspace --all-targets -- -D warnings
    stage no-tracked-images no_tracked_images
    stage no-dead-deps no_dead_deps
    stage cpu-baseline cpu_baseline
}
no_tracked_images() {
    if git ls-files '*.ppm' | grep .; then
        echo "^ generated images are tracked: git rm --cached them" >&2
        return 1
    fi
}
export -f no_tracked_images

# Every `[dependencies]` and `[dev-dependencies]` entry of a workspace
# crate is used: its name (with `-` as `_`) appears as a path (`name::`)
# in that crate's src/ (its unit tests live there too; no crate has a
# tests/ directory of its own).
no_dead_deps() {
    local manifest crate sec dep status=0
    for manifest in crates/*/Cargo.toml; do
        crate=$(dirname "$manifest")
        while read -r sec dep; do
            if ! grep -rqE "(^|[^A-Za-z0-9_])${dep//-/_}::" "$crate/src"; then
                echo "$manifest: $sec entry $dep is never named in $crate/src" >&2
                status=1
            fi
        done < <(awk '/^\[/ { sec = $0; next }
                      (sec == "[dependencies]" || sec == "[dev-dependencies]") && /^[A-Za-z0-9_-]+/ {
                          sub(/[ .=].*/, ""); print sec, $0 }' "$manifest")
    done
    return $status
}
export -f no_dead_deps

# The host can run what the build emits. `.cargo/config.toml` compiles
# every x86_64 target for x86-64-v3; on a host without one of its
# features the first test binary would die of SIGILL deep inside tier1.
# So name the CPU, and fail here with the missing flags (spelled as
# /proc/cpuinfo spells them) instead.
cpu_baseline() {
    [[ $(uname -m) == x86_64 ]] || { echo "$(uname -m): builds with the default target CPU"; return 0; }
    local flag missing=()
    grep -m1 '^model name' /proc/cpuinfo
    local flags=" $(grep -m1 '^flags' /proc/cpuinfo | cut -d: -f2) "
    for flag in avx avx2 bmi1 bmi2 fma f16c abm movbe; do
        [[ $flags == *" $flag "* ]] || missing+=("$flag")
    done
    if ((${#missing[@]})); then
        echo "this CPU lacks x86-64-v3 flags the build targets: ${missing[*]}" >&2
        return 1
    fi
    echo "has every x86-64-v3 flag the build targets"
}
export -f cpu_baseline

# Tier-1 (ROADMAP): release build + the root-package test suite.
group_tier1() {
    stage build cargo build --release
    stage test  cargo test -q
}

# Every crate's in-module unit tests (`tier1` runs only the umbrella
# package's integration tests): the steering endpoint, closed-loop and
# protocol cases (rejected ROIs and inlet pressures among them), the
# solver, partitioner and transport suites, the E20 fit and projector,
# the experiment modules of `hemelb-bench` and the `reproduce` dispatch
# table.
group_units() {
    stage units cargo test -q --workspace --lib --bins
}

# Determinism suite (bit-exactness proptests + golden fixtures, incl.
# the operator grid, the corrupted-streaming-index negative control,
# the serial/threaded checkpoint hand-off, the k-way owner maps
# `golden_kway_owner_maps`, whose Medium cell runs in `golden-soak`, and
# the tracers' vertices, particles and LIC image `golden_trace_lines`),
# observability (phase timings end to end, lossless JSON export) and
# the render path (macrocell marcher bit-identity, the screen-bounded
# render against a scan of every pixel over random bricks and eye
# positions, sparse compositing).
group_determinism() {
    stage determinism cargo test -q --test properties --test golden
    stage obs         cargo test -q --test obs_smoke
    stage render      cargo test -q --test render_compositing
}

# Distributed step schedule: the storage-order and dist == serial
# bitwise equivalence proptests over slab-to-scatter owner maps (incl.
# injected delays), the overlap accounting on ordinary and degenerate
# domains, and the allocation budget of the step path (a count per
# rank-step that does not depend on map fragmentation).
group_overlap() {
    stage overlap cargo test -q --test overlap
    stage alloc-budget cargo test -q --test alloc_budget
}

# Fault injection: benign-fault transparency, kill/checkpoint replay,
# degraded frames under a dead render rank, steering reconnect; and the
# steering loop over real sockets, where a client that stops reading is
# thinned out, detached and replaced without stalling a step.
group_faults() {
    stage faults cargo test -q --test fault_injection --test steering_tcp
}

# Calibrated α–β–γ cost model + 1k–32k rank projection: the fit and
# projector unit tests run under units; here the E20 smoke calibrates
# on real measured worlds, asserts the validation band in-bench
# (predicted vs measured small-world step times) and writes
# out/BENCH_projection.json.
group_projection() {
    smoke projection --size tiny --ranks 4
}

# The remaining report-writing experiment, end to end: E15 (adaptive
# LB).
group_smoke() {
    smoke adaptive --size tiny --ranks 3
}

# The repo benchmark's correctness checks, all six workloads (~4 s after
# the build). benchmark/ is a package with its own [workspace], so this
# is the only stage that compiles it against crates/*. Its build
# rewrites benchmark/Cargo.lock (it drops stale entries); a lock this
# stage found clean is put back afterwards, pass or fail.
group_benchmark_quick() {
    stage benchmark-quick benchmark_quick
}
benchmark_quick() {
    local lock=benchmark/Cargo.lock clean=0 status=0
    git diff --quiet HEAD -- "$lock" && clean=1
    bash benchmark/run.sh --quick || status=$?
    if [[ $clean -eq 1 ]] && ! git diff --quiet HEAD -- "$lock"; then
        git checkout -q HEAD -- "$lock"
    fi
    return $status
}
export -f benchmark_quick

# Size report for simplicity PRs: per-crate non-test lines (everything
# before the first `#[cfg(test)]` of each file) and `pub` item counts,
# then the number of workspace member crates, of vendored crates and of
# `reproduce` experiments (the `name: "` rows of its table).
group_loc() {
    stage loc loc_report
}
loc_report() {
    local crate lines pubs total_lines=0 total_pubs=0
    printf '    %-12s %8s %6s\n' crate non-test pub
    for crate in crates/*/; do
        lines=$(find "$crate/src" -name '*.rs' -print0 | xargs -0 -n1 awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' | awk '{s+=$1} END{print s+0}')
        pubs=$(find "$crate/src" -name '*.rs' -print0 | xargs -0 grep -hcE "^\s*pub (fn|struct|enum|const|type|trait|mod)" | awk '{s+=$1} END{print s+0}')
        printf '    %-12s %8s %6s\n' "$(basename "$crate")" "$lines" "$pubs"
        total_lines=$((total_lines + lines))
        total_pubs=$((total_pubs + pubs))
    done
    printf '    %-12s %8s %6s\n' workspace "$total_lines" "$total_pubs"
    printf '    %-12s %8s\n' crates "$(find crates -mindepth 1 -maxdepth 1 -type d | wc -l)"
    printf '    %-12s %8s\n' vendored "$(find vendor -mindepth 1 -maxdepth 1 -type d | wc -l)"
    printf '    %-12s %8s\n' reproduce "$(grep -c 'name: "' crates/bench/src/bin/reproduce.rs)"
}
export -f loc_report

# Long soaks.
group_soak() {
    stage golden-soak cargo test -q --test golden -- --ignored
    stage fault-soak  cargo test -q --test fault_injection -- --ignored
}

for g in "${CI_GROUPS[@]}"; do
    "group_${g//-/_}"
done
