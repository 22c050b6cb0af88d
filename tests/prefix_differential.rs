//! The differential layer pinning the prefix-product runner: on every
//! fault-free schedule, `run_workload_prefixes` over `ComposedPrefixes`
//! must return the *whole* `WorkloadReport` of the dense `run_workload`
//! over a `SequenceSource`, and of `run_workload_frontier` over
//! `FrontierSource::sequence`, across the workload lattice.
//!
//! Schedules are 1 to 2n random uniform trees, so most runs outlast their
//! schedule and play the repeat-last-tree tail. Each completing case also
//! reruns with a round cap one round short of completion.
//!
//! `ComposedPrefixes` and the dense engine step the same `BroadcastState`
//! kernel, so at `n ≤ 16` each prefix is also checked against an
//! independent oracle: `G(t)` composed from `to_matrix(true)` with
//! `BoolMatrix::compose`.

#![allow(
    clippy::expect_used,
    reason = "test helper outside a #[test] fn: a failed setup aborts the test"
)]

use proptest::prelude::*;
use rand::rngs::StdRng;

use treecast::bitmatrix::BoolMatrix;
use treecast::core::prefix::{run_workload_prefixes, ComposedPrefixes, PrefixProvider};
use treecast::core::workload::SourceSet;
use treecast::core::{
    run_workload, run_workload_frontier, Broadcast, FrontierSource, Gossip, KBroadcast,
    KSourceBroadcast, SequenceSource, SimulationConfig, Workload, WorkloadOutcome, WorkloadReport,
};
use treecast::trees::{random, RootedTree};

/// The sizes under test: every n up to 12, and both sides of the 64-bit
/// word boundary.
const SIZES: [usize; 15] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 63, 64, 65];

fn workload_by_index(i: usize, n: usize, k: usize) -> Box<dyn Workload> {
    match i {
        0 => Box::new(Broadcast),
        1 => Box::new(KBroadcast::new(k)),
        2 => Box::new(Gossip),
        _ => Box::new(KSourceBroadcast::evenly_spread(n, k)),
    }
}

/// Runs the schedule on all three engines and asserts the reports agree.
fn assert_three_way(
    n: usize,
    trees: &[RootedTree],
    workload: &dyn Workload,
    cfg: SimulationConfig,
    ctx: &str,
) -> Result<WorkloadReport, String> {
    let mut frontier_src = FrontierSource::sequence(trees.to_vec());
    let label = frontier_src.name();
    let frontier = run_workload_frontier(n, &mut frontier_src, workload, cfg);

    let mut dense_src = SequenceSource::new(trees.to_vec()).with_label(label.clone());
    let dense = run_workload(n, &mut dense_src, workload, cfg);

    let mut prefixes = ComposedPrefixes::new(trees.to_vec()).with_label(label);
    let prefix = run_workload_prefixes(&mut prefixes, workload, cfg);

    prop_assert_eq!(&prefix, &dense);
    // A tracked (`SourceSet::Nodes`) frontier run reports the first round
    // a *tracked* token disseminated as its broadcast time, where the
    // dense runner counts any of the n tokens (see the `frontier` module
    // docs). Every other field must match.
    let frontier = match workload.sources(n) {
        SourceSet::All => frontier,
        SourceSet::Nodes(_) => WorkloadReport {
            broadcast_time: dense.broadcast_time,
            ..frontier
        },
    };
    prop_assert!(
        frontier == dense,
        "{ctx}: frontier {frontier:?} != dense {dense:?}"
    );
    Ok(dense)
}

/// Steps `rounds` prefixes of `trees` and checks each against the
/// composed oracle: `heard = G(t)ᵀ`, and the mask is the full rows of
/// `G(t)`.
fn assert_oracle(n: usize, trees: &[RootedTree], rounds: usize, ctx: &str) -> Result<(), String> {
    let mut prefixes = ComposedPrefixes::new(trees.to_vec());
    let mut product = BoolMatrix::identity(n);
    for t in 1..=rounds {
        let tree = &trees[(t - 1).min(trees.len() - 1)];
        product = product.compose(&tree.to_matrix(true));
        let prefix = prefixes.next_prefix().expect("schedules repeat forever");
        prop_assert!(
            prefix.tree == tree,
            "{ctx}: round {t} played the wrong tree"
        );
        prop_assert_eq!(prefix.round, t as u64);
        prop_assert!(
            *prefix.heard == product.transpose(),
            "{ctx}: round {t} heard view diverged from the composed oracle"
        );
        let full: Vec<usize> = (0..n).filter(|&x| product.row(x).is_full()).collect();
        prop_assert_eq!(prefix.disseminated.iter().collect::<Vec<_>>(), full);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// prefix ≡ dense ≡ frontier over {broadcast, k-broadcast, gossip,
    /// k-source broadcast} × random schedules with a repeating tail, both
    /// at the default cap and at a cap one round short of completion.
    #[test]
    fn prefix_equals_dense_equals_frontier(
        size_idx in 0usize..15,
        seed in proptest::num::u64::ANY,
        len_pick in 0usize..64,
        workload_idx in 0usize..4,
        k_pick in 0usize..64,
        oracle_rounds in 0usize..48,
    ) {
        let n = SIZES[size_idx];
        let k = 1 + k_pick % n;
        let len = 1 + len_pick % (2 * n);
        let mut rng = StdRng::seed_from_u64(seed);
        let trees: Vec<RootedTree> = (0..len).map(|_| random::uniform(n, &mut rng)).collect();
        let workload = workload_by_index(workload_idx, n, k);
        let ctx = format!("n={n} seed={seed} len={len} wl={}", workload.name());

        if n <= 16 {
            assert_oracle(n, &trees, oracle_rounds, &ctx)?;
        }

        let cfg = SimulationConfig::for_n(n);
        let full = assert_three_way(n, &trees, workload.as_ref(), cfg, &ctx)?;

        if let Some(t) = full.completion_time.filter(|&t| t > 0) {
            let short = cfg.with_max_rounds(t - 1);
            let capped = assert_three_way(n, &trees, workload.as_ref(), short, &ctx)?;
            prop_assert_eq!(capped.outcome, WorkloadOutcome::RoundLimit);
            prop_assert_eq!(capped.rounds, t - 1);
        }
    }
}
