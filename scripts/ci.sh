#!/usr/bin/env bash
# Tier-1 gate for rapminer-rs. Every PR must pass this script unchanged.
#
# Runs, in order:
#   1. cargo fmt --check        -- formatting is canonical rustfmt
#   2. cargo clippy -D warnings -- lint-clean across the whole workspace
#   3. cargo build --release    -- the release artifacts must build
#   4. cargo test -q            -- full test suite (unit + property + e2e)
#   5. clippy unwrap gate       -- non-test code of the daemon and of
#                                  every crate its shard workers run on
#                                  each frame (service, pipeline, detect,
#                                  obs, par, rapminer, mdkpi, baselines,
#                                  timeseries) must not unwrap
#                                  (fault-tolerance policy: recover or
#                                  degrade, never panic the daemon)
#   6. fault injection          -- the failpoint suite: rapd must survive
#                                  injected panics, spool I/O errors, slow
#                                  localizations, and worker deaths
#   7. dirty stream             -- the admission-control suite: ≥5%
#                                  corrupted frames (NaN, duplicates,
#                                  reorder, replay, schema drift) must
#                                  quarantine/repair cleanly with
#                                  byte-identical clean-subset output
#   8. cargo bench --no-run     -- Criterion benches must compile
#   9. obs_overhead             -- tracing overhead smoke test: spans
#                                  enabled vs disabled must stay within a
#                                  5% budget on the localizers bench
#                                  fixture
#  10. determinism gate         -- `rapminer localize` on a fixed fixture
#                                  must print byte-identical output at
#                                  --threads 1 and --threads 8 (the
#                                  parallel-search contract)
#  11. bench regression         -- bench_localize re-checks determinism on
#                                  the Fig. 10 fixture, writes
#                                  BENCH_localize.json, and fails if the
#                                  serial path regressed >20% against
#                                  results/BENCH_localize.baseline.json
#                                  (calibration-normalized), or if a >=4
#                                  core host falls below the 2.5x speedup
#                                  floor
#  12. detection gate           -- `rapminer detect` replays a seeded
#                                  unlabelled anomaly stream through the
#                                  streaming detector end to end and must
#                                  reach >=0.9 recall with <=1 false
#                                  trigger; two runs must be
#                                  byte-identical (determinism)
#  13. introspection gate      -- boots rapd over TCP, follows one frame
#                                  correlation token across the trace,
#                                  incident, and quarantine sinks,
#                                  schema-checks the `debug` verb's JSON,
#                                  and runs the Prometheus exposition
#                                  lint against a live /metrics scrape
#  14. crash-recovery gate     -- SIGKILLs rapd mid-stream at seeded
#                                  points (buffered and --wal-fsync),
#                                  restarts on the same spool, and
#                                  asserts zero admitted-frame loss,
#                                  exactly-once incidents, checkpoint
#                                  restore without detector re-warm, and
#                                  byte-identical localizations vs an
#                                  uninterrupted run; also boots from the
#                                  committed golden checkpoint fixture to
#                                  pin format forward compatibility
#  15. fleet-torture gate      -- boots rapd in router mode (--workers),
#                                  kill -9s random supervised workers
#                                  under seeded multi-tenant traffic, and
#                                  performs a live tenant handoff;
#                                  asserts zero acked-frame loss, no
#                                  duplicate incident tokens anywhere in
#                                  the fleet, per-worker accounting, and
#                                  incidents byte-identical to a
#                                  single-process run
#  16. throughput gate         -- bench_throughput drives real rapd
#                                  daemons (single and --workers fleets)
#                                  with the open-loop loadgen, writes
#                                  BENCH_throughput.json, checks that the
#                                  accounting reconciles, and fails if
#                                  calibration-normalized sustained
#                                  ingest dropped >20% against
#                                  results/BENCH_throughput.baseline.json
#  17. rapbench tests          -- builds the standalone benchmark package
#                                  (rapbench/, its own workspace, which
#                                  calls service::proto directly) and
#                                  runs its unit and smoke tests
#
# Step filters (for iterating on one gate without the other sixteen):
#   CI_STEPS=10,16 scripts/ci.sh   run only the listed steps
#   CI_SKIP=11     scripts/ci.sh   run everything except the listed steps
# A per-step wall-clock summary is printed on exit, pass or fail.
#
# The workspace is fully offline (external deps resolve to crates/shims/),
# so --offline is passed everywhere; no network access is required.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

# ---------------------------------------------------------------------
# Step framework: numbered steps with env filters and wall-clock timing
# ---------------------------------------------------------------------
STEP_LINES=()

want_step() {
    local n="$1"
    if [[ -n "${CI_STEPS:-}" && ",${CI_STEPS}," != *",${n},"* ]]; then
        return 1
    fi
    if [[ -n "${CI_SKIP:-}" && ",${CI_SKIP}," == *",${n},"* ]]; then
        return 1
    fi
    return 0
}

step() {
    local n="$1" label="$2"
    shift 2
    if ! want_step "$n"; then
        STEP_LINES+=("$(printf '  %2s  %-28s %s' "$n" "$label" "skipped")")
        echo "==> [step $n] $label -- skipped"
        return 0
    fi
    echo "==> [step $n] $label"
    local t0 t1
    t0=$SECONDS
    "$@"
    t1=$SECONDS
    STEP_LINES+=("$(printf '  %2s  %-28s %4ss' "$n" "$label" "$((t1 - t0))")")
}

timing_summary() {
    echo "==> per-step wall-clock summary"
    for line in "${STEP_LINES[@]}"; do
        echo "$line"
    done
}

DET_DIR="$(mktemp -d)"
trap 'timing_summary; rm -rf "$DET_DIR"' EXIT

# ---------------------------------------------------------------------
# Multi-command steps, wrapped so the framework can time them
# ---------------------------------------------------------------------

# 10. determinism gate: the CLI must emit byte-identical localizations for
# any thread count. Generates a seeded fixture, then diffs serial vs
# 8-thread output (ranked patterns, scores, and search counters).
determinism_gate() {
    run cargo run --release --offline -p rapminer-cli --bin rapminer -- \
        generate --dataset squeeze --out "$DET_DIR/data" --cases-per-group 1 --seed 20220607
    for case_csv in "$DET_DIR"/data/squeeze_*.csv; do
        cargo run --release --offline -q -p rapminer-cli --bin rapminer -- \
            localize --input "$case_csv" --k 5 --stats true --threads 1 \
            >> "$DET_DIR/serial.txt"
        cargo run --release --offline -q -p rapminer-cli --bin rapminer -- \
            localize --input "$case_csv" --k 5 --stats true --threads 8 \
            >> "$DET_DIR/parallel.txt"
    done
    run diff -u "$DET_DIR/serial.txt" "$DET_DIR/parallel.txt"
    echo "    localize output byte-identical across thread counts"
}

# 12. detection gate: seeded end-to-end detect-then-localize replay.
# The gate flags make the run fail on recall < 0.9 or > 1 false trigger;
# the diff proves the detector is deterministic across runs.
detection_gate() {
    cargo run --release --offline -q -p rapminer-cli --bin rapminer -- \
        detect --seed 7 --min-recall 0.9 --max-false-triggers 1 \
        > "$DET_DIR/detect1.txt"
    cargo run --release --offline -q -p rapminer-cli --bin rapminer -- \
        detect --seed 7 --min-recall 0.9 --max-false-triggers 1 \
        > "$DET_DIR/detect2.txt"
    run diff -u "$DET_DIR/detect1.txt" "$DET_DIR/detect2.txt"
    echo "    detection replay deterministic, recall/false-trigger gate passed"
}

# 16. throughput gate: the loadgen-driven ingest benchmark. Builds the
# daemon binary explicitly so a filtered `CI_STEPS=16` run still finds
# rapminer next to bench_throughput.
throughput_gate() {
    run cargo build --release --offline -p rapminer-cli -p loadgen
    run cargo run --release --offline -p loadgen --bin bench_throughput
}

# ---------------------------------------------------------------------
# The gate
# ---------------------------------------------------------------------
step 1 "rustfmt" cargo fmt --all -- --check
step 2 "clippy" cargo clippy --workspace --all-targets --offline -- -D warnings
step 3 "build --release" cargo build --workspace --release --offline
step 4 "test suite" cargo test --workspace -q --offline
step 5 "unwrap gate" cargo clippy -p service -p pipeline -p detect -p obs -p par \
    -p rapminer -p mdkpi -p baselines -p timeseries --offline -- -D warnings -D clippy::unwrap_used
step 6 "fault injection" cargo test -p service --features fail --offline -q --test fault_injection
step 7 "dirty stream" cargo test -p rapminer-suite --offline -q --test dirty_stream
step 8 "bench --no-run" cargo bench --workspace --offline --no-run
step 9 "obs overhead" cargo run --release --offline -p rapminer-bench --bin obs_overhead -- 5.0
step 10 "localize determinism" determinism_gate
step 11 "localize bench gate" cargo run --release --offline -p rapminer-bench --bin bench_localize
step 12 "detection gate" detection_gate
step 13 "introspection gate" cargo test -p service --offline -q --test introspection
step 14 "crash-recovery gate" cargo test -p rapminer-cli --offline -q --test crash_recovery
step 15 "fleet-torture gate" cargo test -p rapminer-cli --offline -q --test fleet_torture
step 16 "throughput gate" throughput_gate
step 17 "rapbench tests" cargo test --release --offline --manifest-path rapbench/Cargo.toml

echo "==> tier-1 gate passed"
