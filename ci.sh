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
#   ./ci.sh --soak         # + long soaks: golden --ignored (500 steps
#                          #   on 8 ranks; the Medium k-way and parity
#                          #   twins; the Medium k-way quality floor at
#                          #   k = 8 and 16), the 200-step two-kill
#                          #   fault recovery and the Poiseuille
#                          #   ladder's dx 1/4 rung in release
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

# Format + lint, rustdoc with every warning an error (unresolved and
# private intra-doc links among them); no thread spawned outside the
# SPMD runner; and no generated image in the index (the examples and
# `reproduce` write .ppm files into the root and out/, both ignored).
group_lint() {
    stage fmt    cargo fmt --all -- --check
    stage clippy cargo clippy --workspace --all-targets -- -D warnings
    stage docs   env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
    stage one-thread-per-rank one_thread_per_rank
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

# A rank is one thread, as an MPI rank is one core in HemeLB, and a
# solver steps on its caller's thread: no library code but the SPMD
# runner that starts the ranks (crates/parallel/src/runner.rs) spawns a
# thread. Each file is read up to its first `#[cfg(test)]`, where
# `non_test_lines` cuts it too.
one_thread_per_rank() {
    local hits
    hits=$(find crates/*/src -name '*.rs' ! -path crates/parallel/src/runner.rs -print0 |
        xargs -0 -n1 awk '/^#\[cfg\(test\)\]/{exit} /thread::(scope|spawn|Builder)/{print FILENAME ":" FNR ": " $0}')
    if [[ -n $hits ]]; then
        echo "$hits"
        echo "^ a thread spawned outside crates/parallel/src/runner.rs: a rank is one thread" >&2
        return 1
    fi
}
export -f one_thread_per_rank

# Every dependency of the root package and of each workspace crate is
# used: its name (with `-` as `_`) appears as a path (`name::`) or a
# rename (`name as`) in that package's src/ for a `[dependencies]`
# entry, and in its src/, tests/ or examples/ for a `[dev-dependencies]`
# one (the crates keep their unit tests in src/).
no_dead_deps() {
    local manifest dir sec dep status=0
    local -a where
    for manifest in Cargo.toml crates/*/Cargo.toml; do
        dir=$(dirname "$manifest")
        while read -r sec dep; do
            where=("$dir/src")
            if [[ $sec == "[dev-dependencies]" ]]; then
                [[ -d $dir/tests ]] && where+=("$dir/tests")
                [[ -d $dir/examples ]] && where+=("$dir/examples")
            fi
            if ! grep -rqE "(^|[^A-Za-z0-9_])${dep//-/_}(::| as )" "${where[@]}"; then
                echo "$manifest: $sec entry $dep is never named in ${where[*]}" >&2
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
# solver, partitioner and transport suites, the one α–β–γ fit (with
# its identifiability case) that the adaptive driver and E20 share, the
# E20 projector, the experiment modules of `hemelb-bench` and the
# `reproduce` dispatch table.
group_units() {
    stage units cargo test -q --workspace --lib --bins
}

# Determinism suite (bit-exactness proptests + golden fixtures, incl.
# the operator grid, the corrupted-streaming-index negative control,
# the serial checkpoint resumed at both AA parities, the k-way owner
# maps and
# their quality floor `golden_kway_owner_maps`, whose Medium cells and
# Medium floor `kway_medium_quality_floor` (k = 8 and 16: cut within 5 %
# of the maps before the 2³-cell level) run in `golden-soak` and
# `kway-medium-release`, the tracers' vertices, particles and LIC image
# `golden_trace_lines`, and `golden_parity`: both step-count parities
# of every operator × BC on the serial and distributed solvers, with a
# step-3 checkpoint and repartition, whose Medium twin
# runs in `golden-soak`),
# observability (phase timings end to end, lossless JSON export) and
# the render path (macrocell marcher bit-identity, the screen-bounded
# render against a scan of every pixel over random bricks and eye
# positions, sparse compositing). `golden-release` runs the golden
# fixtures again on the optimised x86-64-v3 build the benchmark times,
# since every other test stage builds in debug, and `kway-medium-release`
# runs there the Medium k-way cells (the `prep_cold` map) and the Medium
# quality floor, under a second in release, that otherwise only the
# debug soak reaches; `plan-medium-release` runs the streaming-plan
# builder's oracles on that map at Medium (`hemelb-core`'s ignored
# `plan_builder_keeps_its_promises_at_medium`), and `voxel-medium-release`
# the block voxeliser against its per-cell oracle on the Medium aneurysm
# (`hemelb-geometry`'s ignored `block_voxeliser_matches_the_oracle_at_medium`),
# and `sgmy-medium-release` the `.sgmy` writer against its block-list
# oracle and the distributed read against the serial decode, on the
# same Medium aneurysm (`hemelb-geometry`'s ignored `sgmy_medium_*`),
# and `lines-release` the lockstep tracer against the serial one from
# every fluid site of two lattice planes of the Small aneurysm, wall
# cells included (`hemelb-insitu`'s ignored `wall_cells_*_at_small`),
# and `validation-release` the Poiseuille ladder's dx 1 and 1/2 rungs
# (L2 error against the analytic profile and its observed order in dx,
# every operator and iolet BC) and the steady tube's mass drift
# (`tests/validation.rs`' ignored cells but the `soak_` one).
group_determinism() {
    stage determinism cargo test -q --test properties --test golden
    stage golden-release cargo test --release -q --test golden
    stage kway-medium-release cargo test --release -q --test golden kway_ -- --ignored
    stage plan-medium-release cargo test --release -q -p hemelb-core --lib plan_builder -- --ignored
    stage voxel-medium-release cargo test --release -q -p hemelb-geometry --lib block_voxeliser -- --ignored
    stage sgmy-medium-release cargo test --release -q -p hemelb-geometry --lib sgmy_medium -- --ignored
    stage lines-release cargo test --release -q -p hemelb-insitu --lib wall_cells -- --ignored
    stage validation-release cargo test --release -q --test validation -- --ignored --skip soak_
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
# on real measured worlds and link probes, asserts in-bench that β and
# γ were fitted and that the validation band holds (predicted vs
# measured small-world step times), and writes
# out/BENCH_projection.json. The second run is Small on 8 ranks, about
# 2 200 sites a rank as in the paper: the 8-rank validation row.
group_projection() {
    smoke projection --size tiny --ranks 4
    smoke projection --size small --ranks 8
}

# The remaining report-writing experiment, end to end: E15 (adaptive
# LB); and the two experiments that read the field octree, E9's
# multires table and E4's fig3 pipeline (under a second each).
group_smoke() {
    smoke adaptive --size tiny --ranks 3
    smoke multires --size tiny
    smoke fig3 --size tiny
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
# then the number of workspace member crates, of vendored crates (with
# their non-test lines) and of `reproduce` experiments (the `name: "`
# rows of its table).
group_loc() {
    stage loc loc_report
}
non_test_lines() {
    find "$1" -name '*.rs' -print0 | xargs -0 -n1 awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' | awk '{s+=$1} END{print s+0}'
}
export -f non_test_lines
loc_report() {
    local crate lines pubs total_lines=0 total_pubs=0
    printf '    %-12s %8s %6s\n' crate non-test pub
    for crate in crates/*/; do
        lines=$(non_test_lines "$crate/src")
        pubs=$(find "$crate/src" -name '*.rs' -print0 | xargs -0 grep -hcE "^\s*pub (fn|struct|enum|const|type|trait|mod)" | awk '{s+=$1} END{print s+0}')
        printf '    %-12s %8s %6s\n' "$(basename "$crate")" "$lines" "$pubs"
        total_lines=$((total_lines + lines))
        total_pubs=$((total_pubs + pubs))
    done
    printf '    %-12s %8s %6s\n' workspace "$total_lines" "$total_pubs"
    printf '    %-12s %8s\n' crates "$(find crates -mindepth 1 -maxdepth 1 -type d | wc -l)"
    printf '    %-12s %8s %8s\n' vendored "$(find vendor -mindepth 1 -maxdepth 1 -type d | wc -l)" "$(non_test_lines vendor)"
    printf '    %-12s %8s\n' reproduce "$(grep -c 'name: "' crates/bench/src/bin/reproduce.rs)"
}
export -f loc_report

# Long soaks: the golden suite's `--ignored` cells (500 steps on 8
# k-way ranks against serial, the Medium twins of the k-way maps and of the parity fixture,
# and the Medium k-way quality floor `kway_medium_quality_floor`), the
# fault-injection soak, and the Poiseuille ladder's dx 1/4 rung
# (`tests/validation.rs`' `soak_` cell, about 4 minutes in release).
group_soak() {
    stage golden-soak cargo test -q --test golden -- --ignored
    stage fault-soak  cargo test -q --test fault_injection -- --ignored
    stage validation-soak cargo test --release -q --test validation soak_ -- --ignored
}

for g in "${CI_GROUPS[@]}"; do
    "group_${g//-/_}"
done
