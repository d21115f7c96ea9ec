#!/usr/bin/env bash
# One-shot local verification: exactly what a PR must keep green.
#
#   scripts/verify.sh            # build + full test suite + formatting
#   SKIP_BENCH=1 scripts/verify.sh  # skip the bench regression gate
#
# Mirrors the tier-1 gate in ROADMAP.md (release build + workspace
# tests) and adds the formatting check so style drift is caught before
# review, plus the kernel-bench regression gate (scripts/bench_check.sh)
# so perf cliffs are caught alongside correctness. Std-only: no network,
# no external tools beyond cargo/rustfmt.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo bench --no-run"
# Tier-1 `cargo test` never compiles `[[bench]]` targets, and
# SKIP_BENCH=1 also skips the kernel gate, the only other step that
# does: build every bench target here so a bench calling an edited API
# breaks the gate, not the next person to run it.
cargo bench --no-run -q

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> matrix digest (every experiment, quick seeds 1..=3)"
# golden/matrix_digest.txt pins each run's status, science bytes (status,
# violations, output) and engine counters. Tier-1 checks the seed-1 lines;
# this release step checks all 69 runs and names every run and column that
# moved. Regenerate only on purpose:
#   cargo test --release -p mmwave-campaign --test matrix_digest -- --ignored regenerate
cargo test -q --release -p mmwave-campaign --test matrix_digest

echo "==> event-queue equivalence suite"
# The event queue (a binary heap) must be indistinguishable from the
# test-local reference model (a Vec scanned for its earliest entry):
# identical pop sequences, peeks and lengths under randomized
# schedule/pop/peek scripts.
cargo test -q --release -p mmwave-sim --test queue_equivalence

echo "==> image-tree equivalence suite"
# The shared image tree must reproduce the reference per-pair mirror
# enumeration bit-for-bit across randomized rooms and endpoints.
cargo test -q --release -p mmwave-geom --test image_tree_equivalence

echo "==> spatial pruning suites"
# The interference graph's soundness (pruned pairs provably below the
# coupling floor) and its byte-invisibility in campaign artifacts
# (enforce vs audit mode over a matrix including `enterprise`).
cargo test -q --release -p mmwave-channel --test spatial_pruning_property
cargo test -q --release -p mmwave-campaign --test spatial_equivalence

echo "==> campaign control-plane suites"
# Crash-recovery resume (damaged chunks / torn manifest → only the
# damaged tasks re-execute), then seeded suites for every parser of
# input from outside the process: the JSON codec (round trips,
# truncated and bit-flipped chunks never panic, a 1 MiB string decodes
# in linear time), the resume ledger and waypoint traces (round trips;
# truncated, bit-flipped and line-shuffled inputs never panic).
cargo test -q --release -p mmwave-campaign --test resume
cargo test -q --release -p mmwave-campaign --test json_fuzz
cargo test -q --release -p mmwave-campaign --test manifest_fuzz
cargo test -q --release -p mmwave-mac --test waypoint_fuzz

echo "==> SoA kernel equivalence suites"
# Every SoA/chunked hot path must reproduce its retained scalar
# reference bit-for-bit: pattern synthesis (basis + buffer-reuse +
# batched rows), scope-trace sampling/detection, and ray clearance.
cargo test -q --release -p mmwave-phy --test basis_equivalence
cargo test -q --release -p mmwave-phy --test soa_equivalence
cargo test -q --release -p mmwave-capture --test properties
# The fastmath glibc clones have no runtime self-test or std fallback:
# these clone-vs-std differentials (random bits, dense sweeps, the fused
# pattern tail) are what pins their bits, so run them optimized too.
cargo test -q --release -p mmwave-phy --lib fastmath::

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets"
# Every target, tests and benches included, must get through clippy with
# no warnings: any lint fails the gate.
cargo clippy --all-targets -q -- -D warnings

echo "==> forbidden-pattern gate (ambient state)"
# All per-run state must live in mmwave_sim::ctx::SimCtx. Thread-locals
# and mutable statics reintroduce the cross-task bleed the context
# refactor removed, so they are banned outside the context module
# itself and test code.
violations=$(grep -rn 'thread_local!\|static mut' crates/ --include='*.rs' \
    | grep -v '^crates/sim/src/ctx.rs:' \
    | grep -v '/tests/' \
    | grep -vE ':[0-9]+:\s*//' || true)
if [[ -n "$violations" ]]; then
    echo "forbidden ambient-state pattern found (use SimCtx instead):"
    echo "$violations"
    exit 1
fi

echo "==> forbidden-pattern gate (context creation)"
# Every simulator type is built from the SimCtx its caller passes in, so
# its counters land where a campaign reads them. Library code creates a
# context in two places only: the per-task context in
# campaign/src/runner.rs and the codebook-prebuild scratch in
# phy/src/codebook.rs. Code after a file's first #[cfg(test)], comments
# and the CLI binaries are exempt.
violations=$(find crates/*/src -name '*.rs' -not -path '*/src/bin/*' \
        -not -path crates/campaign/src/runner.rs \
        -not -path crates/phy/src/codebook.rs | sort \
    | xargs awk '
        FNR == 1 { live = 1 }
        /#\[cfg\(test\)\]/ { live = 0 }
        {
            code = $0
            sub(/\/\/.*/, "", code)
            if (live && code ~ /SimCtx::(new|with_cache_mode)\(/)
                print FILENAME ":" FNR ": " $0
        }')
if [[ -n "$violations" ]]; then
    echo "SimCtx created outside the task runner (take the caller's &SimCtx instead):"
    echo "$violations"
    exit 1
fi

echo "==> forbidden-pattern gate (per-process-seeded hashing)"
# std's HashMap and HashSet seed their hasher afresh in every process, so
# anything that iterates one (or sums floats in its order) can differ
# from run to run: in hash-order tie-breaks and in the last bits of a
# sum. Library code uses mmwave_sim::hash's unkeyed FastMap/FastSet for
# lookups and a Vec for anything it iterates. Code after a file's first
# #[cfg(test)] and comments are exempt.
violations=$(find crates/*/src -name '*.rs' -not -path crates/sim/src/hash.rs | sort \
    | xargs awk '
        FNR == 1 { live = 1 }
        /#\[cfg\(test\)\]/ { live = 0 }
        {
            code = $0
            sub(/\/\/.*/, "", code)
            if (live && code ~ /Hash(Map|Set)/)
                print FILENAME ":" FNR ": " $0
        }')
if [[ -n "$violations" ]]; then
    echo "std HashMap/HashSet in library code (use mmwave_sim::hash::FastMap/FastSet,"
    echo "or a Vec where order matters):"
    echo "$violations"
    exit 1
fi

echo "==> forbidden-pattern gate (link budget)"
# Received power has one home: mmwave_channel::propagate's per-path term,
# multipath sum and cached-gain tail. Library code reads the budget's
# per-path formula, conducted power or implementation loss only there, in
# the spatial index's coupling bound (channel/src/spatial.rs) and in the
# budget's own module (phy/src/propagation.rs). Only the FrameClass rule
# in mac/src/frame.rs (FrameClass::extra_power_db) reads the control-PHY
# boost, CONTROL_POWER_OFFSET_DB. Code after a file's first #[cfg(test)]
# and comments are exempt.
violations=$(find crates/*/src -name '*.rs' | sort \
    | xargs awk '
        FNR == 1 {
            live = 1
            budget_home = FILENAME ~ /^crates\/(channel\/src\/(propagate|spatial)|phy\/src\/propagation)\.rs$/
            boost_home = FILENAME == "crates/mac/src/frame.rs"
        }
        /#\[cfg\(test\)\]/ { live = 0 }
        {
            code = $0
            sub(/\/\/.*/, "", code)
            if (live && !budget_home \
                && code ~ /budget\.(rx_power_dbm\(|tx_power_dbm|implementation_loss_db)/)
                print FILENAME ":" FNR ": " $0
            if (live && !boost_home && code ~ /CONTROL_POWER_OFFSET_DB/)
                print FILENAME ":" FNR ": " $0
        }')
if [[ -n "$violations" ]]; then
    echo "link-budget arithmetic or the control-PHY boost outside its home"
    echo "(use mmwave_channel::propagate, or FrameClass::extra_power_db):"
    echo "$violations"
    exit 1
fi

echo "==> forbidden-pattern gate (ad-hoc event queues)"
# All event scheduling in the engines goes through
# mmwave_sim::queue::EventQueue (heap backed, model-verified). A
# BinaryHeap reappearing in the MAC or transport crates means a
# datapath grew its own scheduler around the abstraction — and with it
# its own tie-break rules and counters.
violations=$(grep -rn 'BinaryHeap' crates/transport crates/mac --include='*.rs' \
    | grep -vE ':[0-9]+:\s*//' || true)
if [[ -n "$violations" ]]; then
    echo "BinaryHeap found outside mmwave_sim::queue (use EventQueue instead):"
    echo "$violations"
    exit 1
fi

echo "==> forbidden-pattern gate (congestion math in the datapath)"
# Congestion control lives in mmwave_transport::cc behind CongestionAlg.
# The datapath (tcp.rs) only *detects* loss and applies ControlPatterns;
# any cwnd/ssthresh arithmetic reappearing there means algorithm logic
# leaked back inline.
violations=$(grep -nE 'ssthresh|cwnd[[:space:]]*(\+=|-=|\*=|/=|= )' \
    crates/transport/src/tcp.rs \
    | grep -vE '^[0-9]+:\s*//' || true)
if [[ -n "$violations" ]]; then
    echo "congestion-window arithmetic found in the datapath (move it into crates/transport/src/cc/):"
    echo "$violations"
    exit 1
fi

echo "==> forbidden-pattern gate (allocation in hot-loop kernels)"
# The steady-state bodies of the SoA kernels are allocation-free by
# contract (the bench harness hard-asserts allocs_per_iter == 0 for
# their warm benches). Ban the two literal allocation idioms inside the
# named function bodies so a heap call cannot creep in between bench
# runs. Setup/cold-path functions (pattern_from_weights,
# patterns_from_weight_rows, detect_frames, trace_paths, ...) allocate
# their outputs by design and are deliberately not listed.
check_no_alloc() {
    local file="$1" fname="$2" body hits
    body=$(awk -v fn="$fname" '
        $0 ~ "fn " fn "[ (<]" { infn = 1 }
        infn {
            print
            n = gsub(/{/, "{"); m = gsub(/}/, "}")
            depth += n - m
            if (n > 0) started = 1
            if (started && depth <= 0) exit
        }
    ' "$file")
    if [[ -z "$body" ]]; then
        echo "hot-loop allocation gate: fn $fname not found in $file"
        exit 1
    fi
    hits=$(grep -n 'Vec::new()\|vec!\[' <<<"$body" | grep -vE '^\s*//' \
        | grep -vE '^[0-9]+:\s*//' || true)
    if [[ -n "$hits" ]]; then
        echo "allocation idiom in hot-loop fn $fname ($file) — use caller-provided scratch:"
        echo "$hits"
        exit 1
    fi
}
check_no_alloc crates/phy/src/array.rs synth_rows_into
check_no_alloc crates/phy/src/array.rs fold_rows
check_no_alloc crates/phy/src/array.rs pattern_samples_into
check_no_alloc crates/capture/src/trace.rs sample_into
check_no_alloc crates/geom/src/raytrace.rs leg_is_clear
check_no_alloc crates/geom/src/raytrace.rs legs_clear_fast
check_no_alloc crates/channel/src/linkgain.rs weighted_sum
# The per-frame MAC path: data PPDUs draw their MPDU buffers from the
# net's pool and receive powers from the medium's, and a source's coupled
# set is rebuilt in its own memo buffer after a device moves.
check_no_alloc crates/mac/src/wigig.rs send_next_data
check_no_alloc crates/mac/src/net.rs start_tx
check_no_alloc crates/mac/src/medium.rs begin_tx
check_no_alloc crates/mac/src/medium.rs take_coupled
check_no_alloc crates/mac/src/medium.rs finish_tx

echo "==> ablations binary against its golden output"
# The ablations binary is the only production caller that sets a
# non-default carrier-sense threshold or aggregation cap; its stdout is
# pinned byte for byte. Regenerate only on purpose:
#   cargo run --release -q -p mmwave-core --bin ablations > crates/core/tests/golden/ablations.txt
cargo run --release -q -p mmwave-core --bin ablations \
    | diff -u crates/core/tests/golden/ablations.txt -

echo "==> cc_compare quick experiment"
# The congestion plane's end-to-end check: loss-based and rate-based
# algorithms must diverge through a blockage transient.
cargo run --release -q -p mmwave-campaign --bin campaign -- --quick --format report cc_compare

if [[ "${SKIP_BENCH:-0}" != "1" ]]; then
    echo "==> scripts/bench_check.sh"
    scripts/bench_check.sh
fi

echo "verify: OK"
