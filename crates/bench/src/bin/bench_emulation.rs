//! Emulation measurement harness: runs the paired emulated-vs-model
//! gate rows ({broadcast, gossip, k-source} × {quiet, seeded cocktail}
//! × a knob ladder at n = 64) and emits `results/BENCH_emulation.json`
//! with each row's exact integer statistics for *both* sides, the
//! completion ratio, and wall times.
//!
//! ```text
//! cargo run --release -p treecast-bench --bin bench_emulation -- --smoke # quick tier
//! cargo run --release -p treecast-bench --bin bench_emulation            # full grid
//! cargo run --release -p treecast-bench --bin bench_emulation -- \
//!     --check results/BENCH_emulation_baseline.json   # CI gate
//! ```
//!
//! With `--check <baseline>` the run exits nonzero if (a) any row's
//! emulated or model `completed` / `censored` / `total_rounds` differs
//! from the baseline — both sides are seeded replica pools, so this is
//! a correctness gate that is never skipped, and it pins the
//! unconstrained rows' emulated = model equality — or (b) the emulated
//! grid's wall time per executed replica round is more than 25% slower
//! (skippable via `TREECAST_BENCH_GATE=off`). The baseline records the
//! full grid, so `--check` implies the full grid; `--smoke` is for the
//! quick tier and skips the comparison.

use treecast_bench::emulationbench::{
    gate_report, grid_ns_per_round, measure_gate_rows, PairedMeasurement, GATE_N, GATE_REPLICAS,
};
use treecast_bench::gate::{self, check_arg};

fn print_rows(rows: &[PairedMeasurement]) {
    for r in rows {
        let ratio = if r.ratio > 0.0 {
            format!("{:.3}", r.ratio)
        } else {
            "stalled".into()
        };
        println!(
            "  {:<26} {:<34} {:<16} done={:<3} cens={:<3} emu_rounds={:<7} model_rounds={:<7} ratio={:<8} wall={:>8.1} ms",
            r.workload,
            r.source,
            r.faults,
            r.emu_completed,
            r.emu_censored,
            r.emu_total_rounds,
            r.model_total_rounds,
            ratio,
            r.emu_wall_ms,
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke") && check_arg(&args).is_none();

    println!(
        "emulation {} rows (n = {GATE_N}, {GATE_REPLICAS} emulated + {GATE_REPLICAS} model replicas each)...",
        if smoke { "smoke" } else { "gate" }
    );
    let rows = measure_gate_rows(smoke);
    print_rows(&rows);
    println!(
        "  emulated grid wall: {:.0} ns per executed replica round",
        grid_ns_per_round(&rows)
    );

    gate::finish(&gate_report(&rows), &args);
}
