//! Boundary behaviour, exercised on **both** engines: the one-process
//! model, single-round completions, rounds in which every node is
//! offline, and re-rooting at leaves (the deepest possible
//! [`RootedTree::rerooted`] flip).
//!
//! [`RootedTree::rerooted`]: treecast::trees::RootedTree::rerooted

use treecast::core::{
    drive, run_workload_faulty, run_workload_frontier, run_workload_frontier_faulty, Broadcast,
    BroadcastState, DenseEngine, FaultSchedule, FrontierEngine, FrontierSource, FrontierState,
    Gossip, KBroadcast, RoundFaults, SimulationConfig, StaticSource, Workload, WorkloadOutcome,
    WorkloadReport,
};
use treecast::trees::{generators, RootedTree};

fn assert_engines_agree(
    n: usize,
    mut sparse_src: FrontierSource,
    workload: &dyn Workload,
    schedule: &[RoundFaults],
    cfg: SimulationConfig,
    ctx: &str,
) -> (WorkloadReport, WorkloadReport) {
    let mut dense_src = sparse_src.dense_twin(cfg.max_rounds);
    let mut sparse_trace = Vec::new();
    let sparse = drive(
        &mut FrontierEngine::new(n, &mut sparse_src, workload),
        workload,
        &mut FaultSchedule::new(schedule.to_vec()),
        cfg,
        true,
        &mut |_: &RoundFaults, tree: &RootedTree, state: &FrontierState| {
            sparse_trace.push((state.disseminated_count(), tree.root()));
        },
    );
    let mut dense_trace = Vec::new();
    let dense = drive(
        &mut DenseEngine::new(n, &mut dense_src, workload),
        workload,
        &mut FaultSchedule::new(schedule.to_vec()),
        cfg,
        true,
        &mut |_: &RoundFaults, tree: &RootedTree, state: &BroadcastState| {
            dense_trace.push((state.disseminated_count(), tree.root()));
        },
    );
    assert_eq!(sparse.completion_time, dense.completion_time, "{ctx}");
    assert_eq!(sparse.broadcast_time, dense.broadcast_time, "{ctx}");
    assert_eq!(sparse.rounds, dense.rounds, "{ctx}");
    assert_eq!(sparse.outcome, dense.outcome, "{ctx}");
    assert_eq!(sparse.disseminated, dense.disseminated, "{ctx}");
    assert_eq!(sparse.fault_log, dense.fault_log, "{ctx}");
    assert_eq!(sparse_trace, dense_trace, "{ctx}: round traces");
    (sparse, dense)
}

/// One process: every workload is complete before any round runs, on
/// both engines, with or without faults aimed at the only node.
#[test]
fn single_node_completes_immediately_on_both_engines() {
    let n = 1;
    let cfg = SimulationConfig::for_n(n);
    let workloads: [&dyn Workload; 3] = [&Broadcast, &KBroadcast::new(1), &Gossip];
    for workload in workloads {
        let sparse = run_workload_frontier(
            n,
            &mut FrontierSource::fixed(generators::star(1)),
            workload,
            cfg,
        );
        let dense = treecast::core::run_workload(
            n,
            &mut StaticSource::new(generators::star(1)),
            workload,
            cfg,
        );
        assert_eq!(sparse.completion_time, Some(0));
        assert_eq!(sparse.broadcast_time, Some(0));
        assert_eq!(sparse.rounds, 0);
        assert_eq!(sparse.outcome, WorkloadOutcome::Completed);
        assert_eq!(dense.completion_time, sparse.completion_time);
        assert_eq!(dense.rounds, sparse.rounds);
    }
}

/// Faults aimed at the single node of a one-process run are absorbed
/// without effect: it is complete at round 0 before faults ever apply.
#[test]
fn single_node_ignores_faults() {
    let n = 1;
    let cfg = SimulationConfig::for_n(n);
    let hostile = vec![RoundFaults {
        losses: vec![0],
        root: Some(0),
        offline: vec![0],
    }];
    let mut sched = FaultSchedule::new(hostile.clone());
    let sparse = run_workload_frontier_faulty(
        n,
        &mut FrontierSource::fixed(generators::star(1)),
        &Gossip,
        &mut sched,
        cfg,
    );
    assert_eq!(sparse.completion_time, Some(0));
    assert!(sparse.fault_log.is_empty(), "no round ever executed");

    let mut sched = FaultSchedule::new(hostile);
    let dense = run_workload_faulty(
        n,
        &mut StaticSource::new(generators::star(1)),
        &Gossip,
        &mut sched,
        cfg,
    );
    assert_eq!(dense.completion_time, Some(0));
    assert!(dense.fault_log.is_empty());
}

/// A star rooted at its center broadcasts in exactly one round, on both
/// engines and at a word-boundary size.
#[test]
fn star_broadcast_completes_in_one_round() {
    for n in [2usize, 64, 65] {
        let cfg = SimulationConfig::for_n(n);
        let (sparse, _) = assert_engines_agree(
            n,
            FrontierSource::fixed(generators::star(n)),
            &Broadcast,
            &[],
            cfg,
            &format!("star n={n}"),
        );
        assert_eq!(sparse.completion_time, Some(1), "star n={n}");
        assert_eq!(sparse.broadcast_time, Some(1), "star n={n}");
    }
}

/// A round in which *every* node is offline moves nothing — the
/// completion time shifts by exactly the number of such stalled rounds,
/// and memory (tokens already held) survives the outage.
#[test]
fn all_nodes_offline_rounds_stall_without_losing_memory() {
    let n = 12;
    let cfg = SimulationConfig::for_n(n);
    let everyone: Vec<usize> = (0..n).collect();
    for stalls in [1usize, 3] {
        let schedule: Vec<RoundFaults> = (0..stalls)
            .map(|_| RoundFaults {
                offline: everyone.clone(),
                ..RoundFaults::quiet()
            })
            .collect();
        let (sparse, _) = assert_engines_agree(
            n,
            FrontierSource::fixed(generators::path(n)),
            &Broadcast,
            &schedule,
            cfg,
            &format!("{stalls} stalled rounds"),
        );
        assert_eq!(
            sparse.completion_time,
            Some((n - 1 + stalls) as u64),
            "path broadcast delayed by exactly the stalled prefix"
        );
    }
}

/// An all-offline round *between* productive rounds: progress made before
/// the outage is retained and resumed after it.
#[test]
fn mid_run_blackout_resumes_where_it_stopped() {
    let n = 10;
    let cfg = SimulationConfig::for_n(n);
    let everyone: Vec<usize> = (0..n).collect();
    let mut schedule = vec![RoundFaults::quiet(); 4];
    schedule.insert(
        2,
        RoundFaults {
            offline: everyone,
            ..RoundFaults::quiet()
        },
    );
    let (sparse, _) = assert_engines_agree(
        n,
        FrontierSource::fixed(generators::path(n)),
        &Broadcast,
        &schedule,
        cfg,
        "mid-run blackout",
    );
    assert_eq!(sparse.completion_time, Some(n as u64));
}

/// Re-rooting a path at its far leaf every round: the tree flips between
/// the two orientations, the deepest possible `rerooted` path. Both
/// engines agree, and the alternation is slower than the quiet run (the
/// token keeps being chased back).
#[test]
fn rerooting_at_leaves_flips_the_path_identically() {
    let n = 9;
    let cfg = SimulationConfig::for_n(n);
    // Rounds 1, 3, 5, … re-root at the far leaf; rounds 2, 4, … at the
    // original root (also a leaf of the flipped tree).
    let schedule: Vec<RoundFaults> = (0..cfg.max_rounds as usize)
        .map(|i| RoundFaults {
            root: Some(if i % 2 == 0 { n - 1 } else { 0 }),
            ..RoundFaults::quiet()
        })
        .collect();
    let (sparse, _) = assert_engines_agree(
        n,
        FrontierSource::fixed(generators::path(n)),
        &Broadcast,
        &schedule,
        cfg,
        "leaf re-rooting",
    );
    assert_eq!(sparse.outcome, WorkloadOutcome::Completed);

    let quiet = run_workload_frontier(
        n,
        &mut FrontierSource::fixed(generators::path(n)),
        &Broadcast,
        cfg,
    );
    assert!(
        sparse.completion_time.unwrap() >= quiet.completion_time.unwrap(),
        "chasing the token with leaf re-roots cannot beat the quiet run"
    );
}

/// Re-rooting at a leaf of a star turns the center into a relay: both
/// engines agree on the two-hop broadcast it produces.
#[test]
fn star_rerooted_at_leaf_broadcasts_in_two_rounds() {
    let n = 16;
    let cfg = SimulationConfig::for_n(n);
    let schedule: Vec<RoundFaults> = (0..cfg.max_rounds as usize)
        .map(|_| RoundFaults {
            root: Some(5),
            ..RoundFaults::quiet()
        })
        .collect();
    let (sparse, _) = assert_engines_agree(
        n,
        FrontierSource::fixed(generators::star(n)),
        &Broadcast,
        &schedule,
        cfg,
        "star re-rooted at leaf",
    );
    // Leaf 5's token goes 5 → center in round 1, center → rest in round 2.
    assert_eq!(sparse.completion_time, Some(2));
}

/// The round-limit path: a workload that cannot complete (gossip on a
/// static star never returns leaf tokens) reports `RoundLimit` with the
/// same counters on both engines.
#[test]
fn round_limit_agrees_on_both_engines() {
    let n = 8;
    let cfg = SimulationConfig::for_n(n).with_max_rounds(10);
    let (sparse, dense) = assert_engines_agree(
        n,
        FrontierSource::fixed(generators::star(n)),
        &Gossip,
        &[],
        cfg,
        "gossip round limit",
    );
    assert_eq!(sparse.outcome, WorkloadOutcome::RoundLimit);
    assert_eq!(sparse.rounds, 10);
    assert_eq!(sparse.completion_time, None);
    assert_eq!(dense.disseminated, sparse.disseminated);
}
