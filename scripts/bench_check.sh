#!/usr/bin/env bash
# Bench regression gate: run the kernel registry into a scratch file and
# compare it against the committed BENCH_kernels.json baseline: every
# whole-number allocs_per_iter exactly (allocation counts do not depend on
# the host's speed), every median within a tolerance.
#
#   scripts/bench_check.sh                    # time gate at the default +100%
#   BENCH_TOLERANCE=0.5 scripts/bench_check.sh  # tighter time band
#
# Re-baselining (after an intentional perf change): run
#   cargo bench -p mmwave-bench --bench kernels
# on an idle machine — it rewrites BENCH_kernels.json at the repo root —
# and commit the refreshed file with the change that moved the numbers.
set -euo pipefail
cd "$(dirname "$0")/.."

scratch="$(mktemp "${TMPDIR:-/tmp}/bench_current.XXXXXX.json")"
trap 'rm -f "$scratch"' EXIT

echo "==> cargo bench -p mmwave-bench --bench kernels (fresh run)"
BENCH_OUT="$scratch" cargo bench -p mmwave-bench --bench kernels

echo "==> comparing against committed BENCH_kernels.json"
cargo run -q --release -p mmwave-bench --bin bench_check -- \
    BENCH_kernels.json "$scratch"
