//! Server benchmark: cold/uncached vs warm/cached batched query serving
//! at `n = 1024` over a Zipf-skewed request mix; emits
//! `results/BENCH_server.json`.
//!
//! ```text
//! cargo run --release -p treecast-bench --bin bench_server
//! cargo run --release -p treecast-bench --bin bench_server -- --smoke
//! cargo run --release -p treecast-bench --bin bench_server -- \
//!     --check results/BENCH_server_baseline.json   # CI gate
//! ```
//!
//! `--smoke` runs the toy shape (quick CI tier): same procedure, asserts
//! the warm pass runs entirely from the cache and beats the uncached
//! engine, writes nothing. The full run writes the report; with `--check
//! <baseline>` it additionally exits nonzero if (a) any exact cell —
//! per-rank completion rounds, warm hit/miss counters, hit rate — drifts
//! from the baseline (never skipped), or (b) the warm ns/request
//! regresses more than 25% or the warm-over-cold speedup drops below 5×
//! (both skippable via `TREECAST_BENCH_GATE=off`).

use treecast_bench::gate;
use treecast_bench::serverbench::{full_load, measure, smoke_load, ServerBenchReport};

fn print_report(report: &ServerBenchReport) {
    println!(
        "pool completions (rounds, rank order): {:?}",
        report.completion_rounds
    );
    println!(
        "warm pass: {} requests, hits={} misses={} (hit rate {}‰)",
        report.load.requests, report.warm_hits, report.warm_misses, report.warm_hit_rate_permille
    );
    println!(
        "cold {:.0} ns/req vs warm {:.0} ns/req → {:.1}x speedup",
        report.cold_ns_per_request, report.warm_ns_per_request, report.speedup
    );
    println!(
        "warm qps {:.0}, latency p50/p99/p999 = {}/{}/{} ns, threaded qps {:.0} ({} workers)",
        report.warm_qps,
        report.p50_ns,
        report.p99_ns,
        report.p999_ns,
        report.threaded_qps,
        report.workers
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        println!("running the smoke shape...");
        let report = measure(&smoke_load());
        print_report(&report);
        assert_eq!(report.warm_misses, 0, "smoke: warm pass must be all hits");
        assert!(
            report.speedup > 1.0,
            "smoke: the cache must beat the uncached engine"
        );
        println!("smoke ok");
        return;
    }

    println!("running the full server bench (n = {})...", full_load().n);
    let report = measure(&full_load());
    print_report(&report);

    let current = report.gate_report();
    gate::write(&current);
    if let Some(baseline) = gate::baseline(&args) {
        let mut verdict = gate::check(&current, &baseline);
        // The speedup floor is a wall-half check: the switch skips it too.
        if !gate::wall_gate_disabled() {
            verdict.record(report.speedup_floor());
        }
        gate::enforce(&verdict);
    }
}
