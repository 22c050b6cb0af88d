//! The Zeiner–Schwarz–Schmid restricted adversaries: trees with exactly
//! `k` leaves or exactly `k` inner nodes per round stay linear with slope
//! governed by `k` (the two restricted rows of Figure 1).
//!
//! ```text
//! cargo run --release --example restricted_trees
//! ```

use treecast::adversary::{ExactInnerPool, ExactLeafPool, GreedyAdversary, SurvivalObjective};
use treecast::core::{bounds, run_workload, Broadcast, SimulationConfig};

fn main() {
    println!("restricted adversaries: broadcast time under exactly-k trees\n");
    println!(
        "{:>3} {:>4} {:>10} {:>10} {:>8} {:>8}",
        "k", "n", "k-leaves", "k-inner", "k·n", "path n−1"
    );
    for k in [2usize, 3, 4] {
        for n in [8usize, 16, 32, 64] {
            if k >= n {
                continue;
            }
            let leaves = run_workload(
                n,
                &mut GreedyAdversary::new(ExactLeafPool::new(k, 8, 1), SurvivalObjective),
                &Broadcast,
                SimulationConfig::for_n(n),
            )
            .completion_time_or_panic();
            let inner = run_workload(
                n,
                &mut GreedyAdversary::new(ExactInnerPool::new(k, 8, 1), SurvivalObjective),
                &Broadcast,
                SimulationConfig::for_n(n),
            )
            .completion_time_or_panic();
            println!(
                "{:>3} {:>4} {:>10} {:>10} {:>8} {:>8}",
                k,
                n,
                leaves,
                inner,
                bounds::upper_k_leaves(k as u64, n as u64),
                n - 1
            );
        }
        println!();
    }
    println!(
        "Both families grow linearly in n for fixed k and sit under the k·n\n\
         reference curve — the O(kn) behaviour Figure 1 quotes from ZSS."
    );
}
