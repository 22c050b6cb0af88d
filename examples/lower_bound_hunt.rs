//! The lower-bound hunt: how long can an adversary really delay?
//!
//! Runs the exact solver on small networks (ground truth), then sends the
//! searched adversaries after the `⌈(3n−1)/2⌉ − 2` bound on larger ones.
//!
//! ```text
//! cargo run --release --example lower_bound_hunt
//! ```

#![allow(
    clippy::expect_used,
    reason = "an example aborts loudly on an impossible state rather than threading errors through its narrative"
)]

use treecast::adversary::{beam_search_plan, ArborescencePool, BeamOptions, SurvivalAdversary};
use treecast::core::{bounds, run_workload, Broadcast, SequenceSource, SimulationConfig};
use treecast::solver;

fn main() {
    println!("== exact ground truth (state-space solver) ==");
    println!(
        "{:>3} {:>9} {:>8} {:>8}  LB tight?",
        "n", "t* exact", "LB", "UB"
    );
    for n in 2..=5usize {
        let r = solver::solve(n).expect("small n solves");
        let lb = bounds::lower_bound(n as u64);
        println!(
            "{:>3} {:>9} {:>8} {:>8}  {}",
            n,
            r.t_star,
            lb,
            bounds::upper_bound(n as u64),
            if r.t_star == lb {
                "yes"
            } else {
                "NO — new bound!"
            }
        );
        // The optimal schedule replays through the public engine.
        let replayed = solver::verify_schedule(n, &r.schedule);
        assert_eq!(replayed, r.t_star);
    }
    println!("(n = 6 takes ~30 s: run `experiments exact --full` for it)");

    println!("\n== searched adversaries vs the ZSS bound ==");
    println!(
        "{:>3} {:>7} {:>9} {:>9} {:>8} {:>8}",
        "n", "path", "survival", "beam-32", "LB", "UB"
    );
    for n in [8usize, 12, 16, 24, 32] {
        let path = (n - 1) as u64;
        let survival = run_workload(
            n,
            &mut SurvivalAdversary::default(),
            &Broadcast,
            SimulationConfig::for_n(n),
        )
        .completion_time_or_panic();
        let plan = beam_search_plan(
            n,
            &mut ArborescencePool::new(4),
            BeamOptions::for_n(n).with_width(32),
        );
        let beam = run_workload(
            n,
            &mut SequenceSource::new(plan),
            &Broadcast,
            SimulationConfig::for_n(n),
        )
        .completion_time_or_panic();
        println!(
            "{:>3} {:>7} {:>9} {:>9} {:>8} {:>8}",
            n,
            path,
            survival,
            beam,
            bounds::lower_bound(n as u64),
            bounds::upper_bound(n as u64)
        );
    }
    println!(
        "\nEvery run is a *certified achievable* lower bound on t*(T_n): the\n\
         schedule replays deterministically through the simulation engine."
    );
}
