//! Adversary-search measurement harness: replays the deterministic beam
//! plan grid, times one representative planning run, and emits
//! `results/BENCH_adversary.json`.
//!
//! ```text
//! cargo run --release -p treecast-bench --bin bench_adversary
//! cargo run --release -p treecast-bench --bin bench_adversary -- \
//!     --check results/BENCH_adversary_baseline.json   # CI gate
//! ```
//!
//! With `--check <baseline>` the run exits nonzero if (a) any grid cell's
//! achieved round count differs from the baseline — a search-behavior gate
//! that is never skipped — or (b) planning is more than 25% slower
//! (skippable via `TREECAST_BENCH_GATE=off` for unsuitable hosts).

use treecast_bench::adversarybench::{gate_report, measure_plan_wall, measure_rounds};
use treecast_bench::gate;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    println!("running the deterministic beam-plan grid...");
    let rounds = measure_rounds();
    for r in &rounds {
        println!(
            "  {:<22} {:<18} w={:<2} d={} n={:<3} rounds={}",
            r.workload,
            r.objective,
            r.width,
            r.lookahead,
            r.n,
            r.rounds
                .map(|t| t.to_string())
                .unwrap_or_else(|| ">cap".into())
        );
    }

    let wall = measure_plan_wall(25);
    println!(
        "plan_wall n={} w={}: {:.2} ms/plan",
        wall.n,
        wall.width,
        wall.ns_per_plan / 1e6
    );

    gate::finish(&gate_report(&rounds, &wall), &args);
}
