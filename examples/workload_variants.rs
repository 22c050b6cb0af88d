//! The companion paper's workload variants, measured against the bounds
//! recorded in `treecast::core::bounds`: k-broadcast and gossip under the
//! rooted-tree adversary (where only k = 1 has a finite worst case) and
//! under tighter c-nonsplit adversaries (where the whole lattice
//! completes, faster as c grows).
//!
//! ```text
//! cargo run --release --example workload_variants
//! ```

#![allow(
    clippy::expect_used,
    reason = "an example aborts loudly on an impossible state rather than threading errors through its narrative"
)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use treecast::adversary::{GreedyAdversary, MinDisseminated, StructuredPool};
use treecast::core::{
    bounds, run_workload, Gossip, KBroadcast, SimulationConfig, StaticSource, Workload,
};
use treecast::nonsplit::{workload_time_nonsplit, PiecewiseNonsplit};
use treecast::trees::generators;

fn main() {
    println!("== k-broadcast under the rooted-tree adversary ==");
    println!("(worst-case-searched: greedy descent under min-disseminated)\n");
    println!(
        "{:>4} {:>4} {:>10} {:>8} {:>12} {:>10}",
        "n", "k", "measured", "LB ZSS", "UB", "verdict"
    );
    for n in [8usize, 16, 32] {
        for k in [1usize, 2, n / 2] {
            let mut adv = GreedyAdversary::new(StructuredPool::new(), MinDisseminated::default());
            let report = run_workload(n, &mut adv, &KBroadcast::new(k), SimulationConfig::for_n(n));
            let (nu, ku) = (n as u64, k as u64);
            let measured = report
                .completion_time
                .map(|t| t.to_string())
                .unwrap_or_else(|| ">cap".into());
            let ub = if bounds::tree_k_broadcast_diverges(ku) {
                "unbounded".to_string()
            } else {
                bounds::upper_bound(nu).to_string()
            };
            // Consistency with the recorded bounds: k = 1 must land inside
            // the Theorem 3.1 sandwich's achievable half; k ≥ 2 worst-case
            // searches are expected to hit the cap (the static path is an
            // explicit infinite witness).
            let consistent = match report.completion_time {
                Some(t) => ku > 1 || t <= bounds::upper_bound(nu),
                None => bounds::tree_k_broadcast_diverges(ku),
            };
            assert!(consistent, "n = {n}, k = {k} inconsistent with bounds");
            println!(
                "{:>4} {:>4} {:>10} {:>8} {:>12} {:>10}",
                n,
                k,
                measured,
                bounds::k_broadcast_lower(nu, ku),
                ub,
                "ok"
            );
        }
    }

    // The diverging witness, explicitly.
    let n = 8;
    let mut path = StaticSource::new(generators::path(n));
    let stuck = run_workload(
        n,
        &mut path,
        &KBroadcast::new(2),
        SimulationConfig::for_n(n).with_max_rounds(10_000),
    );
    println!(
        "\nstatic path, k = 2, n = {n}: {} disseminated token(s) after {} rounds — \
         the worst case is unbounded for every k ≥ 2",
        stuck.disseminated, stuck.rounds
    );

    println!("\n== the same lattice under c-nonsplit adversaries ==");
    println!("(every workload completes; tighter c ⇒ faster)\n");
    println!(
        "{:>4} {:>18} {:>6} {:>6} {:>6} {:>20}",
        "n", "workload", "c=2", "c=4", "c=8", "FNW 2loglog n + 2 ref"
    );
    for n in [16usize, 64, 256] {
        let workloads: Vec<Box<dyn Workload>> = vec![
            Box::new(KBroadcast::new(1)),
            Box::new(KBroadcast::new(n / 2)),
            Box::new(Gossip),
        ];
        for workload in &workloads {
            let mut times = Vec::new();
            for c in [2usize, 4, 8] {
                let mut rng = StdRng::seed_from_u64(2211_10151);
                let t = workload_time_nonsplit(
                    n,
                    workload.as_ref(),
                    &mut PiecewiseNonsplit::new(c),
                    10_000,
                    &mut rng,
                )
                .expect("c-nonsplit rounds complete every workload");
                times.push(t);
            }
            println!(
                "{:>4} {:>18} {:>6} {:>6} {:>6} {:>20.1}",
                n,
                workload.name(),
                times[0],
                times[1],
                times[2],
                bounds::fnw_reference(n as u64, 2.0) / n as f64
            );
        }
    }
}
