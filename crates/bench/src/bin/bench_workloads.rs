//! Workload-engine measurement harness: runs the deterministic
//! `(workload × adversary × n)` grid, times the batched `TrackedTokens`
//! tree step (`BoolMatrix::gather_union_prefix`), and emits
//! `results/BENCH_workloads.json`.
//!
//! ```text
//! cargo run --release -p treecast-bench --bin bench_workloads
//! cargo run --release -p treecast-bench --bin bench_workloads -- \
//!     --check results/BENCH_workloads_baseline.json   # CI gate
//! ```
//!
//! With `--check <baseline>` the run exits nonzero if (a) any grid cell's
//! round count differs from the baseline — a correctness gate that is
//! never skipped — or (b) the tracked stepping is more than 25% slower
//! (skippable via `TREECAST_BENCH_GATE=off` for unsuitable hosts).

use treecast_bench::gate::{self, best_ns};
use treecast_bench::workloadbench::{
    gate_report, measure_gossip_reduction, measure_rounds, TrackedStepMeasurement,
};
use treecast_core::TrackedTokens;
use treecast_trees::generators;

/// Tracked-stepping workload shape: `STEP_K` holder rows at `STEP_N`
/// nodes, pre-warmed to the dense steady state.
const STEP_N: usize = 1024;
const STEP_K: usize = 8;

fn measure_tracked_step() -> TrackedStepMeasurement {
    let sources: Vec<usize> = (0..STEP_K).map(|i| i * STEP_N / STEP_K).collect();
    let mut state = TrackedTokens::new(STEP_N, &sources);
    // Warm into the dense regime: a few caterpillar rounds spread every
    // token across most of the graph, after which each round gathers k
    // dense holder rows (the steady state a long dissemination run
    // spends nearly all its time in).
    let warm = generators::caterpillar(STEP_N, 8);
    for _ in 0..4 {
        state.apply(&warm);
    }
    let round = generators::caterpillar(STEP_N, 16);
    let ns_per_round = best_ns(|| state.apply(&round), 30);
    TrackedStepMeasurement {
        n: STEP_N,
        k: STEP_K,
        ns_per_round,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    println!("running the deterministic workload grid...");
    let rounds = measure_rounds();
    for r in &rounds {
        println!(
            "  {:<22} {:<24} n={:<3} rounds={}",
            r.workload,
            r.adversary,
            r.n,
            r.rounds
                .map(|t| t.to_string())
                .unwrap_or_else(|| ">cap".into())
        );
    }

    let step = measure_tracked_step();
    println!(
        "tracked_step n={} k={}: {:.0} ns/round",
        step.n, step.k, step.ns_per_round
    );

    // The before/after record of the gossip-reduction fix: per-source
    // from-scratch recomposition vs one shared composition per round.
    let reduction = measure_gossip_reduction(48);
    println!(
        "gossip_reduction n={}: naive {:.1} ms vs shared {:.2} ms ({:.0}x)",
        reduction.n,
        reduction.naive_total_ns / 1e6,
        reduction.shared_total_ns / 1e6,
        reduction.speedup()
    );

    gate::finish(&gate_report(&rounds, &step, &reduction), &args);
}
