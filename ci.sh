#!/usr/bin/env bash
# The tiered CI gate for the treecast workspace. Run from the repo root.
#
#   ./ci.sh [quick|full|release] [--fix]
#
#   quick    fmt check, clippy (-D warnings, which turns the root
#            `[workspace.lints]` table's warnings into errors, the panic
#            policy included), release build, tests (the layering and
#            gate-coverage checks among them), benchmark type-check, bench
#            smoke, frontier smoke (n = 10^4), server smoke (n = 64),
#            montecarlo smoke (n = 64), emulation smoke (n = 64), docs
#            (skips the bench regression gates and the --ignored tier)
#   full     quick + the solver/workloads/adversary/frontier/server/
#            montecarlo/emulation bench gates, the release-mode
#            differential/scenario proptests, the benchmark's build and
#            smoke tests, and all five determinism tests (debug build,
#            threads 1/2/4/8) (default)
#   release  full + the slow --ignored solver tier, the beam width
#            sweep, and the frontier scale rows (n = 10^6)
#   --fix    apply rustfmt instead of failing on drift
#
# Every step runs even after a failure: one CI run reports all breakage,
# prints a per-step wall-time summary, and exits nonzero listing every
# failed step. Everything runs offline: the rand/proptest/criterion
# dependencies are vendored path crates (see vendor/).
# Every bench gate writes one GateReport document (results/BENCH_<x>.json:
# bench, exact cells, wall statistic, info rows; schema in
# crates/bench/README.md) and compares it with `gate::check`.
# TREECAST_BENCH_GATE=off skips the *timing* halves of the bench gates
# (the exact halves and the wall-label match are always enforced).
set -uo pipefail
cd "$(dirname "$0")"

TIER=full
FMT_MODE=--check
for arg in "$@"; do
    case "$arg" in
        quick|full|release) TIER=$arg ;;
        --fix) FMT_MODE="" ;;
        *)
            echo "usage: ./ci.sh [quick|full|release] [--fix]" >&2
            exit 2
            ;;
    esac
done

STEP_NAMES=()
STEP_SECS=()
STEP_RESULTS=()
FAILED=()

# run_step <name> <command...> — runs the command, records wall time and
# pass/fail, and keeps going on failure.
run_step() {
    local name="$1"
    shift
    printf '\n== %s ==\n' "$name"
    local start
    start=$(date +%s)
    local result=ok
    if ! "$@"; then
        result=FAIL
        FAILED+=("$name")
    fi
    STEP_NAMES+=("$name")
    STEP_SECS+=($(($(date +%s) - start)))
    STEP_RESULTS+=("$result")
}

step_fmt() {
    # shellcheck disable=SC2086 # intentional word splitting of the flag
    cargo fmt $FMT_MODE || return 1
    local shim
    for shim in vendor/rand vendor/proptest vendor/criterion vendor/serde vendor/serde_derive; do
        # shellcheck disable=SC2086
        (cd "$shim" && cargo fmt $FMT_MODE) || return 1
    done
    # The benchmark is a workspace of its own, so the root run skips it.
    # shellcheck disable=SC2086
    cargo fmt $FMT_MODE --manifest-path perfbench/Cargo.toml || return 1
}

step_server_release() {
    cargo test -q --release -p treecast --test server_differential &&
        cargo test -q --release -p treecast-server &&
        cargo test -q --release -p treecast-client
}

step_docs() {
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps
}

run_step "cargo fmt ${FMT_MODE:-(fix)}" step_fmt
# Every target, warnings as errors. The workspace lint table of the root
# Cargo.toml holds the lint policy: the allowed lints with their reasons,
# doc coverage, unsafe hygiene, cfg names, and the panic policy
# (unwrap_used, expect_used, panic; clippy.toml exempts tests). Each
# library panic site carries an `#[expect(…, reason = "…")]`, and one that
# no longer fires fails this step (unfulfilled_lint_expectations).
run_step "cargo clippy (warnings are errors)" \
    cargo clippy --workspace --all-targets -- -D warnings
run_step "cargo build --release" cargo build --release
run_step "cargo test -q" cargo test -q
# The benchmark is a workspace of its own that calls the library APIs by
# path; type-checking it here, its smoke tests included, surfaces a
# library change that breaks it without waiting for the full tier's
# build and smoke tests.
run_step "benchmark type-check (perfbench, release)" \
    cargo check --release --offline --all-targets --manifest-path perfbench/Cargo.toml
run_step "bench smoke (criterion test mode)" cargo test -q -p treecast-bench --benches
# Frontier-engine smoke at n = 10^4 (release binary, ~1 s): proves the
# sparse engine completes both scale workloads far above the dense
# engine's comfort zone even in the quick tier. No --check here; the
# gated comparison runs in the full tier below.
run_step "frontier smoke (n = 10^4, release)" \
    cargo run --release -p treecast-bench --bin bench_frontier
# Server smoke: the cached query engine on a toy load shape (n = 64,
# 300 requests) — asserts the primed stream runs fully warm and beats
# the uncached engine. The gated full-size comparison is in the full
# tier below.
run_step "server smoke (n = 64, release)" \
    cargo run --release -p treecast-bench --bin bench_server -- --smoke
# Monte Carlo smoke: three seeded estimator cells (static-path loss
# sweep endpoints plus one seeded-uniform k = 2 row) — proves the
# replica pool, estimators and both engines run end to end. The exact
# full-grid comparison is in the full tier below.
run_step "montecarlo smoke (n = 64, release)" \
    cargo run --release -p treecast-bench --bin bench_montecarlo -- --smoke
# Emulation smoke: three paired emulated-vs-synchronous cells (quiet
# path unconstrained, bandwidth-1 star, seeded gossip under the fault
# cocktail) — proves the gossip protocol layer, the knob caps, and the
# model-pinning ratio end to end. The exact full-grid comparison is in
# the full tier below.
run_step "emulation smoke (n = 64, release)" \
    cargo run --release -p treecast-bench --bin bench_emulation -- --smoke

if [[ "$TIER" != quick ]]; then
    # Each gate re-measures, writes its GateReport to
    # results/BENCH_<x>.json and runs `gate::check` against the checked-in
    # baseline: the wall statistic at +25% (same label required), every
    # baseline exact cell with zero tolerance.
    run_step "solver bench gate (quick sizes, exact t* + n = 6 wall)" \
        cargo run --release -p treecast-bench --bin bench_solver -- \
        --quick --check results/BENCH_solver_baseline.json
    run_step "workloads bench gate (exact rounds + tracked-step wall)" \
        cargo run --release -p treecast-bench --bin bench_workloads -- \
        --check results/BENCH_workloads_baseline.json
    run_step "adversary bench gate (exact plan rounds + planning wall)" \
        cargo run --release -p treecast-bench --bin bench_adversary -- \
        --check results/BENCH_adversary_baseline.json
    run_step "frontier bench gate (exact rounds + median sweep wall, n = 10^4)" \
        cargo run --release -p treecast-bench --bin bench_frontier -- \
        --check results/BENCH_frontier_baseline.json
    run_step "server bench gate (exact cells + warm wall + 5x floor)" \
        cargo run --release -p treecast-bench --bin bench_server -- \
        --check results/BENCH_server_baseline.json
    run_step "montecarlo bench gate (exact estimator cells + grid wall)" \
        cargo run --release -p treecast-bench --bin bench_montecarlo -- \
        --check results/BENCH_montecarlo_baseline.json
    run_step "emulation bench gate (exact paired cells + grid wall)" \
        cargo run --release -p treecast-bench --bin bench_emulation -- \
        --check results/BENCH_emulation_baseline.json
    # The beam/greedy/exact differential harness, the fault-layer
    # scenario properties, and the sparse-vs-dense frontier differential
    # suite, in release mode (they also run in the debug tier-1 pass;
    # this run is the fast, optimized re-check).
    run_step "adversary differential + scenario proptests (release)" \
        cargo test -q --release --test adversary_differential --test scenarios
    run_step "frontier + prefix differential proptests (release)" \
        cargo test -q --release --test frontier_differential --test edge_cases \
        --test prefix_differential
    # Cached server == uncached server == direct engine, across every
    # workload, faults included, plus the server crate's own tests (the
    # miss-step oracle, the pinned fingerprints, the warm-round
    # allocation window) and the load generator's, whose counters make
    # bench_server's hit/miss exact cells, in an optimized build (all
    # also in the debug tier-1 pass).
    run_step "server differential + server and client crate tests (release)" \
        step_server_release
    # The benchmark (perfbench/, a workspace of its own) builds against
    # the library crates by path, and its smoke tests pin its traced
    # round loops to the library runners report for report. Building
    # and testing it here surfaces a library change that breaks it.
    run_step "benchmark build + smoke tests (perfbench, release)" \
        cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
    # Concurrency determinism: the four threaded subsystems (solver
    # discovery, server batch threads, Monte Carlo replica pool,
    # gossip-emulation replica pool) across {1,2,4,8} threads must be
    # bit-identical and match their pinned fingerprints, with the
    # debug_validate invariant checkers live — hence a DEBUG build, not
    # --release. Tier-1 runs three of the five; this runs all five.
    run_step "determinism tests (debug, threads 1/2/4/8)" \
        cargo test -q -p treecast-bench --test determinism -- --include-ignored
fi

if [[ "$TIER" == release ]]; then
    # Brute-force cross-check at n = 5, old-recursive vs layered agreement
    # at n = 6, and the deepest-chain small-stack run — too slow for the
    # debug tier. The n = 7 frontier test stays opt-in via TREECAST_N7=1.
    run_step "release-tier slow solver tests (--ignored)" \
        cargo test -q --release -p treecast-solver -- --ignored
    # Beam width heuristic validation on the E10 grid; records
    # results/width_sweep.csv and asserts width 8 never loses to width 2.
    run_step "beam width sweep (--ignored, writes results/width_sweep.csv)" \
        cargo test -q --release --test adversary_width_sweep -- --ignored
    # The tentpole: both frontier scale rows at n = 10^6 (plus the gated
    # smoke rows). Exact rounds still compared; the baseline holds only
    # the smoke cells, so the million-node rows are informational.
    run_step "frontier scale rows (n = 10^6, release tier only)" \
        cargo run --release -p treecast-bench --bin bench_frontier -- \
        --scale --check results/BENCH_frontier_baseline.json
fi

run_step "cargo doc --no-deps (warnings are errors)" step_docs

printf '\n== ci.sh %s tier summary ==\n' "$TIER"
printf '%-55s %8s  %s\n' step seconds result
printf '%s\n' "-------------------------------------------------------------------------"
total=0
for i in "${!STEP_NAMES[@]}"; do
    printf '%-55s %8s  %s\n' "${STEP_NAMES[$i]}" "${STEP_SECS[$i]}" "${STEP_RESULTS[$i]}"
    total=$((total + STEP_SECS[i]))
done
printf '%-55s %8s\n' total "$total"

if ((${#FAILED[@]} > 0)); then
    printf '\nci.sh: %d step(s) FAILED:\n' "${#FAILED[@]}"
    printf '  - %s\n' "${FAILED[@]}"
    exit 1
fi
printf '\nci.sh: all green (%s tier)\n' "$TIER"
