//! The dense-oracle differential layer pinning the frontier-sparse engine:
//! for every workload × fault-model combination the sparse run must equal
//! the dense run **round for round** — per-round disseminated counts,
//! termination round, report fields, and the recorded fault log — and the
//! sparse log must replay bit-identically through [`FaultSchedule`].
//!
//! The dense side always runs the frontier source's
//! [`dense_twin`](FrontierSource::dense_twin), which produces the
//! identical tree sequence, so any divergence is the engine's fault, not
//! the adversary's.

use proptest::prelude::*;

use treecast::core::{
    drive, run_workload_faulty, run_workload_frontier, run_workload_frontier_faulty, Broadcast,
    BroadcastState, DenseEngine, FaultModel, FaultSchedule, FrontierEngine, FrontierSource,
    FrontierState, Gossip, KBroadcast, NoFaults, RotatingRoot, RoundFaults, SeededFaults,
    SimulationConfig, Workload, WorkloadReport,
};
use treecast::trees::{generators, RootedTree};

/// Seeded fault rounds are unbounded streams, so runs under them cap the
/// round budget to keep the dense twin's materialized tree schedule (and
/// the dense O(n²) state) small.
const SEEDED_MAX_ROUNDS: u64 = 64;

fn workload_by_index(i: usize) -> Box<dyn Workload> {
    match i {
        0 => Box::new(Broadcast),
        1 => Box::new(KBroadcast::new(3)),
        _ => Box::new(Gossip),
    }
}

fn fault_model_by_index(i: usize, seed: u64) -> Box<dyn FaultModel> {
    match i {
        0 => Box::new(NoFaults),
        1 => Box::new(RotatingRoot::new(1 + (seed as usize % 3) as u64)),
        _ => Box::new(
            SeededFaults::new(seed)
                .with_token_loss(12)
                .with_dropout(8, 2)
                .with_root_changes(20),
        ),
    }
}

fn source_by_index(i: usize, n: usize, seed: u64) -> FrontierSource {
    match i {
        0 => FrontierSource::fixed(generators::path(n)),
        1 => FrontierSource::sequence(
            (0..n.min(9))
                .map(|c| generators::star_with_center(n, c))
                .collect(),
        ),
        _ => FrontierSource::seeded(n, seed),
    }
}

/// Runs the identical configuration on both engines, tracing both, and
/// asserts full equality: every report field, the fault logs, and the
/// per-round `(disseminated, tree root)` witness streams.
fn assert_differential(
    n: usize,
    mut sparse_src: FrontierSource,
    workload: &dyn Workload,
    sparse_faults: &mut dyn FaultModel,
    dense_faults: &mut dyn FaultModel,
    cfg: SimulationConfig,
    ctx: &str,
) -> WorkloadReport {
    let mut dense_src = sparse_src.dense_twin(cfg.max_rounds);

    let mut sparse_trace: Vec<(usize, usize)> = Vec::new();
    let sparse = drive(
        &mut FrontierEngine::new(n, &mut sparse_src, workload),
        workload,
        sparse_faults,
        cfg,
        true,
        &mut |_: &RoundFaults, tree: &RootedTree, state: &FrontierState| {
            // The structural invariant checker is live in debug builds; the
            // differential suite exercises it on every traced round.
            state.debug_validate();
            sparse_trace.push((state.disseminated_count(), tree.root()));
        },
    );

    let mut dense_trace: Vec<(usize, usize)> = Vec::new();
    let dense = drive(
        &mut DenseEngine::new(n, &mut dense_src, workload),
        workload,
        dense_faults,
        cfg,
        true,
        &mut |_: &RoundFaults, tree: &RootedTree, state: &BroadcastState| {
            dense_trace.push((state.disseminated_count(), tree.root()));
        },
    );

    assert_eq!(sparse.n, dense.n, "{ctx}: n");
    assert_eq!(sparse.workload, dense.workload, "{ctx}: workload name");
    assert_eq!(sparse.source, dense.source, "{ctx}: source label");
    assert_eq!(sparse.rounds, dense.rounds, "{ctx}: termination round");
    assert_eq!(sparse.outcome, dense.outcome, "{ctx}: outcome");
    assert_eq!(
        sparse.completion_time, dense.completion_time,
        "{ctx}: completion_time"
    );
    assert_eq!(
        sparse.broadcast_time, dense.broadcast_time,
        "{ctx}: broadcast_time"
    );
    assert_eq!(
        sparse.disseminated, dense.disseminated,
        "{ctx}: disseminated"
    );
    assert_eq!(sparse.tokens, dense.tokens, "{ctx}: tokens");
    assert_eq!(sparse.fault_log, dense.fault_log, "{ctx}: fault log");
    assert_eq!(
        sparse_trace, dense_trace,
        "{ctx}: per-round (disseminated, root) witness streams"
    );
    sparse
}

/// A sparse run's recorded fault log, replayed through
/// [`FaultSchedule::replay`] on *both* engines, must reproduce the run
/// bit-identically.
fn assert_replays(
    n: usize,
    src: &FrontierSource,
    workload: &dyn Workload,
    cfg: SimulationConfig,
    original: &WorkloadReport,
    ctx: &str,
) {
    let mut sparse_src = src.dense_twin(cfg.max_rounds);
    let mut replay = FaultSchedule::replay(&original.fault_log);
    let dense = run_workload_faulty(n, &mut sparse_src, workload, &mut replay, cfg);
    assert_eq!(
        dense.fault_log, original.fault_log,
        "{ctx}: dense replay log"
    );
    assert_eq!(
        dense.completion_time, original.completion_time,
        "{ctx}: dense replay completion"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The full cross product: {path, rotating stars, seeded-uniform}
    /// sources × {broadcast, 3-broadcast, gossip} × {quiet, rotating
    /// root, seeded losses+dropout+reroots}, at proptest-sampled sizes.
    #[test]
    fn sparse_equals_dense_round_for_round(
        n in 2usize..40,
        seed in proptest::num::u64::ANY,
        source_idx in 0usize..3,
        workload_idx in 0usize..3,
        fault_idx in 0usize..3,
    ) {
        let cfg = SimulationConfig::for_n(n).with_max_rounds(SEEDED_MAX_ROUNDS);
        let workload = workload_by_index(workload_idx);
        let mut sparse_faults = fault_model_by_index(fault_idx, seed);
        let mut dense_faults = fault_model_by_index(fault_idx, seed);
        let src = source_by_index(source_idx, n, seed);
        let report = assert_differential(
            n,
            src,
            workload.as_ref(),
            sparse_faults.as_mut(),
            dense_faults.as_mut(),
            cfg,
            &format!("n={n} seed={seed} src={source_idx} wl={workload_idx} faults={fault_idx}"),
        );
        assert_replays(
            n,
            &source_by_index(source_idx, n, seed),
            workload.as_ref(),
            cfg,
            &report,
            &format!("replay n={n} seed={seed} src={source_idx} wl={workload_idx} faults={fault_idx}"),
        );
    }
}

/// The acceptance ceiling: n = 1024 on every workload, quiet faults, a
/// static path (worst-case diameter) and a seeded-uniform source.
#[test]
fn n_1024_quiet_matches_dense() {
    let n = 1024;
    for workload_idx in 0..3 {
        let workload = workload_by_index(workload_idx);
        // Static path: completion is Θ(n) rounds, so give the full budget.
        let cfg = SimulationConfig::for_n(n);
        assert_differential(
            n,
            FrontierSource::fixed(generators::path(n)),
            workload.as_ref(),
            &mut NoFaults,
            &mut NoFaults,
            cfg,
            &format!("n=1024 path wl={workload_idx}"),
        );
        // Seeded uniform trees: expected O(log n) completion; the capped
        // budget keeps the dense twin's schedule small.
        let cfg = SimulationConfig::for_n(n).with_max_rounds(SEEDED_MAX_ROUNDS);
        assert_differential(
            n,
            FrontierSource::seeded(n, 7 + workload_idx as u64),
            workload.as_ref(),
            &mut NoFaults,
            &mut NoFaults,
            cfg,
            &format!("n=1024 seeded wl={workload_idx}"),
        );
    }
}

/// n = 1024 under the full seeded fault cocktail, including replay.
#[test]
fn n_1024_faulty_matches_dense_and_replays() {
    let n = 1024;
    let cfg = SimulationConfig::for_n(n).with_max_rounds(SEEDED_MAX_ROUNDS);
    let make_faults = || {
        SeededFaults::new(0xD1FF)
            .with_token_loss(10)
            .with_dropout(6, 3)
            .with_root_changes(15)
    };
    let report = assert_differential(
        n,
        FrontierSource::seeded(n, 99),
        &Broadcast,
        &mut make_faults(),
        &mut make_faults(),
        cfg,
        "n=1024 seeded faults",
    );
    assert!(
        !report.fault_log.is_empty(),
        "the cocktail must actually exercise faults"
    );
    assert!(
        report.fault_log.iter().any(|rf| !rf.losses.is_empty()),
        "token losses must occur"
    );
    assert!(
        report.fault_log.iter().any(|rf| !rf.offline.is_empty()),
        "dropout must occur"
    );
    assert_replays(
        n,
        &FrontierSource::seeded(n, 99),
        &Broadcast,
        cfg,
        &report,
        "n=1024 seeded faults replay",
    );
}

/// The plain (fault-free) frontier entry point matches `run_workload`'s
/// contract: same report as the faulty runner under `NoFaults`, with the
/// fault log cleared.
#[test]
fn plain_runner_is_quiet_faulty_runner_with_log_cleared() {
    let n = 257;
    let cfg = SimulationConfig::for_n(n).with_max_rounds(SEEDED_MAX_ROUNDS);
    let plain = run_workload_frontier(n, &mut FrontierSource::seeded(n, 5), &Gossip, cfg);
    let faulty = run_workload_frontier_faulty(
        n,
        &mut FrontierSource::seeded(n, 5),
        &Gossip,
        &mut NoFaults,
        cfg,
    );
    assert!(plain.fault_log.is_empty());
    assert_eq!(plain.completion_time, faulty.completion_time);
    assert_eq!(plain.broadcast_time, faulty.broadcast_time);
    assert_eq!(plain.rounds, faulty.rounds);
    assert_eq!(plain.disseminated, faulty.disseminated);
    assert!(faulty.fault_log.iter().all(|rf| rf.is_quiet()));
}
