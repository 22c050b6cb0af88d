//! Monte Carlo measurement harness: runs the gated estimator cells
//! (static-path loss sweep plus seeded-uniform k ≥ 2 rows at n = 64)
//! and emits `results/BENCH_montecarlo.json` with each cell's exact
//! integer statistics, derived floats, and wall time.
//!
//! ```text
//! cargo run --release -p treecast-bench --bin bench_montecarlo -- --smoke # quick tier
//! cargo run --release -p treecast-bench --bin bench_montecarlo            # full grid
//! cargo run --release -p treecast-bench --bin bench_montecarlo -- \
//!     --check results/BENCH_montecarlo_baseline.json   # CI gate
//! ```
//!
//! With `--check <baseline>` the run exits nonzero if (a) any cell's
//! `completed` / `censored` / `total_rounds` differs from the baseline —
//! every cell is a seeded replica pool, so this is a correctness gate
//! that is never skipped — or (b) the grid's wall time per executed
//! replica round is more than 25% slower (skippable via
//! `TREECAST_BENCH_GATE=off`). The baseline records the full grid, so
//! `--check` implies the full grid; `--smoke` is for the quick tier and
//! skips the comparison.

use treecast_bench::gate::{self, check_arg};
use treecast_bench::montecarlobench::{
    gate_report, measure_gate_rows, sweep_ns_per_round, CellMeasurement, GATE_N, GATE_REPLICAS,
};

fn print_rows(rows: &[CellMeasurement]) {
    for r in rows {
        let mean = if r.completed > 0 {
            format!("{:.1}±{:.1}", r.mean, r.ci95.max(0.0))
        } else {
            "stalled".into()
        };
        println!(
            "  {:<26} {:<16} {:<14} n={:<5} done={:<3} cens={:<3} rounds={:<8} mean={:<12} p90={:<8.1} wall={:>8.1} ms",
            r.workload,
            r.source,
            r.faults,
            r.n,
            r.completed,
            r.censored,
            r.total_rounds,
            mean,
            r.p90,
            r.wall_ms,
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke") && check_arg(&args).is_none();

    println!(
        "montecarlo {} cells (n = {GATE_N}, {GATE_REPLICAS} replicas each)...",
        if smoke { "smoke" } else { "gate" }
    );
    let rows = measure_gate_rows(smoke);
    print_rows(&rows);
    println!(
        "  grid wall: {:.0} ns per executed replica round",
        sweep_ns_per_round(&rows)
    );

    gate::finish(&gate_report(&rows), &args);
}
