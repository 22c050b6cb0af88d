//! The probe contract, checked on all four engines of the round driver:
//! a `Probe` sees rounds `1..=report.rounds` in order, each with that
//! round's normalized faults and (re-rooted) tree, and sees `on_finish`
//! exactly once with the report the run returns.

use treecast::core::{
    drive, run_workload, run_workload_frontier, ComposedPrefixes, DenseEngine, FaultSchedule,
    FrontierEngine, FrontierSource, Gossip, PrefixEngine, Probe, RoundEngine, RoundFaults,
    SequenceSource, SimulationConfig, WorkloadReport,
};
use treecast::emulation::{EmulationEngine, GossipKnobs};
use treecast::trees::{generators, RootedTree};

const N: usize = 6;

/// Records every call.
#[derive(Default)]
struct Recorder {
    rounds: Vec<(RoundFaults, RootedTree)>,
    finished: Vec<WorkloadReport>,
}

impl<S: ?Sized> Probe<S> for Recorder {
    fn on_round(&mut self, faults: &RoundFaults, tree: &RootedTree, _: &S) {
        self.rounds.push((faults.clone(), tree.clone()));
    }

    fn on_finish(&mut self, report: &WorkloadReport) {
        self.finished.push(report.clone());
    }
}

/// Rotating stars: a different tree every round (so the trees pin the
/// round order), then the last repeats.
fn schedule() -> Vec<RootedTree> {
    (0..N).map(|c| generators::star_with_center(N, c)).collect()
}

/// Un-normalized faults (unsorted, duplicated) for the first rounds,
/// quiet afterwards.
fn faults() -> Vec<RoundFaults> {
    let mut rounds = vec![RoundFaults::default(); 4];
    rounds[0].losses = vec![3, 1, 3];
    rounds[0].offline = vec![4, 4];
    rounds[1].root = Some(2);
    rounds[3].losses = vec![5];
    rounds
}

fn config() -> SimulationConfig {
    SimulationConfig::for_n(N).with_max_rounds(4 * N as u64)
}

/// Drives `engine` under `faults` with a recording probe and checks the
/// contract.
fn check<E: RoundEngine>(name: &str, mut engine: E, faults: Vec<RoundFaults>) {
    let mut probe = Recorder::default();
    let mut model = FaultSchedule::new(faults.clone());
    let report = drive(&mut engine, &Gossip, &mut model, config(), true, &mut probe);
    assert!(report.rounds >= 2, "{name}: the run must play rounds");
    assert_eq!(
        probe.finished,
        std::slice::from_ref(&report),
        "{name}: on_finish once"
    );
    assert_eq!(probe.rounds.len() as u64, report.rounds, "{name}: rounds");
    let trees = schedule();
    for (i, (rf, tree)) in probe.rounds.iter().enumerate() {
        let t = i + 1;
        let mut want = faults.get(i).cloned().unwrap_or_default();
        want.normalize(N);
        assert_eq!(rf, &want, "{name}: round {t} faults, normalized");
        assert_eq!(rf, &report.fault_log[i], "{name}: round {t} logged");
        let base = &trees[i.min(N - 1)];
        let want_tree = want.root.map_or_else(|| base.clone(), |r| base.rerooted(r));
        assert_eq!(tree, &want_tree, "{name}: round {t} tree, in order");
    }
}

#[test]
fn probe_sees_every_round_once_in_order_on_every_engine() {
    let knobs = GossipKnobs::unconstrained();
    let mut dense = SequenceSource::new(schedule());
    let mut emulated = SequenceSource::new(schedule());
    let mut sparse = FrontierSource::sequence(schedule());
    let mut prefixes = ComposedPrefixes::new(schedule());
    check("dense", DenseEngine::new(N, &mut dense, &Gossip), faults());
    let frontier = FrontierEngine::new(N, &mut sparse, &Gossip);
    check("frontier", frontier, faults());
    // Prefix products are fault-free, so this engine runs quiet.
    check("prefix", PrefixEngine::new(&mut prefixes, &Gossip), vec![]);
    let emulation = EmulationEngine::new(N, &mut emulated, &Gossip, &knobs);
    check("emulation", emulation, faults());

    // The fault-free entry points keep no per-round log: a million-round
    // frontier run must not grow one.
    let plain = run_workload(N, &mut SequenceSource::new(schedule()), &Gossip, config());
    assert!(plain.rounds > 0 && plain.fault_log.is_empty());
    let mut sparse = FrontierSource::sequence(schedule());
    let sparse = run_workload_frontier(N, &mut sparse, &Gossip, config());
    assert!(sparse.rounds > 0 && sparse.fault_log.is_empty());
}
