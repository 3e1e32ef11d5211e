#!/usr/bin/env bash
# The stability procedure: N full sets of runs (default 5, at least 2),
# each with another seed; prints for every (end-to-end metric, workload)
# the spread and drift against the metric's bound, checks that the
# exact-class counts repeat, and exits non-zero on a breach.
#   benchmark/stability.sh [sets] [--seconds s]
set -euo pipefail
sets="${1:-5}"
shift || true
exec bash "$(dirname "$0")/run.sh" --stability "$sets" "$@"
