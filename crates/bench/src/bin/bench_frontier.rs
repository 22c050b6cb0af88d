//! Frontier-engine measurement harness: runs the sparse engine's scale
//! rows (static-path broadcast and the k-source seeded sweep), times the
//! sweep again to take the median per-round cost of several runs, and
//! emits `results/BENCH_frontier.json` with completion rounds, total and
//! per-round wall time, the gated median, and peak RSS.
//!
//! ```text
//! cargo run --release -p treecast-bench --bin bench_frontier            # smoke, n = 10^4
//! cargo run --release -p treecast-bench --bin bench_frontier -- --scale # + n = 10^6
//! cargo run --release -p treecast-bench --bin bench_frontier -- \
//!     --check results/BENCH_frontier_baseline.json   # CI gate
//! ```
//!
//! With `--check <baseline>` the run exits nonzero if (a) any row's
//! completion round differs from the baseline — every row is a seeded
//! deterministic run, so this is a correctness gate that is never
//! skipped — or (b) the median ns/round of the smoke-size sweep's
//! repetitions is more than 25% slower
//! (skippable via `TREECAST_BENCH_GATE=off`). The checked-in baseline
//! records only the smoke size; `--scale` rows are extra cells the exact
//! gate permits, so the million-node runs stay release-tier-only without
//! weakening the gate.

use treecast_bench::frontierbench::{
    gate_report, measure_scale_rows, sweep_median_ns_per_round, ScaleMeasurement, GATE_N,
    GATE_REPS, SCALE_N, SMOKE_N,
};
use treecast_bench::gate;

fn print_rows(rows: &[ScaleMeasurement]) {
    for r in rows {
        println!(
            "  {:<26} {:<28} n={:<8} rounds={:<8} wall={:>10.1} ms  {:>12.0} ns/round  rss={}",
            r.workload,
            r.source,
            r.n,
            r.rounds
                .map(|t| t.to_string())
                .unwrap_or_else(|| ">cap".into()),
            r.wall_ms,
            r.ns_per_round,
            r.peak_rss_kb
                .map(|kb| format!("{:.1} MiB", kb as f64 / 1024.0))
                .unwrap_or_else(|| "n/a".into()),
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = args.iter().any(|a| a == "--scale");

    println!("frontier smoke rows (n = {SMOKE_N})...");
    let mut rows = measure_scale_rows(SMOKE_N);
    print_rows(&rows);
    let sweep_median_ns = sweep_median_ns_per_round(GATE_N);
    println!("  gated sweep n={GATE_N}: median {sweep_median_ns:.0} ns/round of {GATE_REPS} runs");

    if scale {
        println!("frontier scale rows (n = {SCALE_N})...");
        let big = measure_scale_rows(SCALE_N);
        print_rows(&big);
        rows.extend(big);
    }

    gate::finish(&gate_report(&rows, sweep_median_ns), &args);
}
