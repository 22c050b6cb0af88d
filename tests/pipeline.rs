//! Full-pipeline integration: tournaments, restricted adversaries honoring
//! their constraint over whole runs, metrics CSV shape, and the
//! nonsplit/CFN bridge between crates.

use treecast::adversary::{
    run_tournament, ExactInnerPool, ExactLeafPool, GreedyAdversary, Lineup, SurvivalObjective,
    TournamentConfig,
};
use treecast::core::{
    drive, Broadcast, BroadcastState, DenseEngine, MetricsRecorder, NoFaults, Probe, RoundFaults,
    SimulationConfig, StaticSource, TreeSource, WorkloadReport,
};
use treecast::trees::{generators, RootedTree};

#[test]
fn tournament_pipeline_with_bounds() {
    let lineup = Lineup::new()
        .with(
            "static-path",
            Box::new(|n, _| Box::new(StaticSource::new(generators::path(n)))),
        )
        .with(
            "survival",
            Box::new(|_, _| Box::new(treecast::adversary::SurvivalAdversary::default())),
        );
    let rows = run_tournament(&lineup, &[6, 10, 14], TournamentConfig::default());
    assert_eq!(rows.len(), 6);
    for row in &rows {
        assert!(row.broadcast_time <= row.upper_bound, "{row:?}");
    }
    // The survival adversary wins every size.
    for n in [6usize, 10, 14] {
        let path = rows
            .iter()
            .find(|r| r.n == n && r.adversary == "static-path")
            .unwrap();
        let surv = rows
            .iter()
            .find(|r| r.n == n && r.adversary == "survival")
            .unwrap();
        assert!(
            surv.broadcast_time >= path.broadcast_time,
            "survival lost to the path at n = {n}"
        );
    }
}

/// Probe asserting a per-round structural constraint on every tree.
struct ShapeAsserter<F: Fn(&RootedTree)> {
    check: F,
    rounds: u64,
}

impl<F: Fn(&RootedTree)> Probe<BroadcastState> for ShapeAsserter<F> {
    fn on_round(&mut self, _faults: &RoundFaults, tree: &RootedTree, _state: &BroadcastState) {
        (self.check)(tree);
        self.rounds += 1;
    }

    fn on_finish(&mut self, report: &WorkloadReport) {
        assert_eq!(report.rounds, self.rounds);
    }
}

/// A dense broadcast run of `source` with `probe` attached.
fn broadcast_probed(
    n: usize,
    source: &mut impl TreeSource,
    probe: &mut impl Probe<BroadcastState>,
) {
    let mut engine = DenseEngine::new(n, source, &Broadcast);
    let cfg = SimulationConfig::for_n(n);
    drive(&mut engine, &Broadcast, &mut NoFaults, cfg, false, probe);
}

#[test]
fn restricted_adversaries_honor_k_every_round() {
    let n = 12;
    for k in [2usize, 3, 5] {
        let mut leaves_check = ShapeAsserter {
            check: move |t: &RootedTree| assert_eq!(t.leaf_count(), k, "leaf constraint broken"),
            rounds: 0,
        };
        let mut adv = GreedyAdversary::new(ExactLeafPool::new(k, 6, 9), SurvivalObjective);
        broadcast_probed(n, &mut adv, &mut leaves_check);
        assert!(leaves_check.rounds > 0);

        let mut inner_check = ShapeAsserter {
            check: move |t: &RootedTree| assert_eq!(t.inner_count(), k, "inner constraint broken"),
            rounds: 0,
        };
        let mut adv = GreedyAdversary::new(ExactInnerPool::new(k, 6, 9), SurvivalObjective);
        broadcast_probed(n, &mut adv, &mut inner_check);
        assert!(inner_check.rounds > 0);
    }
}

#[test]
fn metrics_csv_shape_through_public_api() {
    let n = 10;
    let mut rec = MetricsRecorder::every_round();
    let mut src = StaticSource::new(generators::path(n));
    broadcast_probed(n, &mut src, &mut rec);
    let csv = rec.to_csv();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 1 + (n - 1), "header + one row per round");
    let header_cols = lines[0].split(',').count();
    assert!(lines[1..]
        .iter()
        .all(|l| l.split(',').count() == header_cols));
}

#[test]
fn cfn_bridge_nonsplit_state_broadcasts_fast() {
    // Cross-crate: drive the core state with a nonsplit matrix built by
    // the nonsplit crate from trees-crate trees — the CFN pipeline.
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let n = 16;
    let mut state = BroadcastState::new(n);
    let mut rounds = 0;
    while state.broadcast_witness().is_none() {
        let m = treecast::nonsplit::generators::tree_product(n, &mut rng);
        assert!(m.is_nonsplit());
        state.apply_matrix(&m);
        rounds += 1;
        assert!(rounds < 50, "nonsplit rounds must broadcast quickly");
    }
    // Doubly-logarithmic: far below n rounds.
    assert!(rounds <= 10, "took {rounds} rounds");
}

#[test]
fn facade_reexports_are_wired() {
    // One line from every member crate through the facade.
    let _ = treecast::bitmatrix::BitSet::new(4);
    let _ = treecast::trees::generators::path(3);
    let _ = treecast::core::bounds::upper_bound(10);
    let _ = treecast::adversary::standard_lineup();
    let _ = treecast::solver::CanonMode::Exact;
    let _ = treecast::nonsplit::RandomNonsplit;
}
