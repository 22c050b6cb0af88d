//! The emulation runner: [`EmulationState`] rounds on the core round
//! driver ([`drive`]), the loop every synchronous run takes, so with
//! unconstrained knobs an emulated run returns the synchronous
//! [`WorkloadReport`], and its `fault_log` replays it bit-identically.

use treecast_core::scenario::{FaultModel, RoundFaults};
use treecast_core::workload::{SourceSet, Workload, WorkloadProgress, WorkloadReport};
use treecast_core::{drive, BroadcastState, RoundEngine, SimulationConfig, TreeSource};
use treecast_trees::{NodeId, RootedTree};

use crate::protocol::{EmulationState, GossipKnobs};

/// The emulation engine for [`drive`]: an [`EmulationState`] running
/// the gossip protocol under `knobs` over a [`TreeSource`]'s trees.
///
/// [`TreeSource::next_tree`] takes the synchronous product-graph state,
/// which an emulation does not have, so every call gets a frozen round-0
/// [`BroadcastState`]. The replica layer's sources (static, sequence,
/// seeded) ignore the state; a state-adaptive adversary would see a
/// stale snapshot.
pub struct EmulationEngine<'a, S: ?Sized> {
    source: &'a mut S,
    knobs: &'a GossipKnobs,
    emu: EmulationState,
    /// The tracked sources; `None` tracks all `n` tokens.
    sources: Option<Vec<NodeId>>,
    frozen: BroadcastState,
    tree: Option<RootedTree>,
}

impl<'a, S: TreeSource + ?Sized> EmulationEngine<'a, S> {
    /// A fresh `n`-peer emulation of `workload`'s tokens under `knobs`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new<W: Workload + ?Sized>(
        n: usize,
        source: &'a mut S,
        workload: &W,
        knobs: &'a GossipKnobs,
    ) -> Self {
        EmulationEngine {
            source,
            knobs,
            emu: EmulationState::new(n),
            sources: match workload.sources(n) {
                SourceSet::All => None,
                SourceSet::Nodes(list) => Some(list),
            },
            frozen: BroadcastState::new(n),
            tree: None,
        }
    }
}

impl<S: TreeSource + ?Sized> RoundEngine for EmulationEngine<'_, S> {
    type State = EmulationState;

    fn step(&mut self, faults: &RoundFaults) -> Option<(&RootedTree, &EmulationState)> {
        let mut tree = self.source.next_tree(&self.frozen);
        if let Some(r) = faults.root {
            tree = tree.rerooted(r);
        }
        self.emu.gossip_round(&tree, faults, self.knobs);
        Some((self.tree.insert(tree), &self.emu))
    }

    fn progress(&self) -> WorkloadProgress {
        let n = self.emu.n();
        let (tokens, disseminated) = match &self.sources {
            None => (n, self.emu.disseminated_count()),
            Some(list) => (list.len(), self.emu.disseminated_among(list)),
        };
        WorkloadProgress {
            n,
            round: self.emu.round(),
            tokens,
            disseminated,
        }
    }

    fn any_disseminated(&self, progress: &WorkloadProgress) -> bool {
        match self.sources {
            None => progress.disseminated >= 1,
            Some(_) => self.emu.disseminated_count() >= 1,
        }
    }

    fn source_name(&self) -> String {
        self.source.name()
    }
}

/// Runs the gossip protocol under `knobs` over `source`'s trees and
/// `faults` — the emulation twin of
/// [`treecast_core::scenario::run_workload_faulty`].
///
/// # Panics
///
/// Panics if `n == 0`, a fault names a node `>= n`, or the source
/// produces a tree of the wrong size.
pub fn run_emulation<S, W, F>(
    n: usize,
    source: &mut S,
    workload: &W,
    knobs: &GossipKnobs,
    faults: &mut F,
    config: SimulationConfig,
) -> WorkloadReport
where
    S: TreeSource + ?Sized,
    W: Workload + ?Sized,
    F: FaultModel + ?Sized,
{
    run_emulation_traced(n, source, workload, knobs, faults, config, |_, _, _| {})
}

/// [`run_emulation`] with a per-round [`Probe`](treecast_core::Probe)
/// closure.
///
/// # Panics
///
/// Same contract as [`run_emulation`].
pub fn run_emulation_traced<S, W, F>(
    n: usize,
    source: &mut S,
    workload: &W,
    knobs: &GossipKnobs,
    faults: &mut F,
    config: SimulationConfig,
    mut on_round: impl FnMut(&RoundFaults, &RootedTree, &EmulationState),
) -> WorkloadReport
where
    S: TreeSource + ?Sized,
    W: Workload + ?Sized,
    F: FaultModel + ?Sized,
{
    let mut engine = EmulationEngine::new(n, source, workload, knobs);
    drive(&mut engine, workload, faults, config, true, &mut on_round)
}

#[cfg(test)]
mod tests {
    use super::*;
    use treecast_core::scenario::{run_workload_faulty, FaultSchedule, NoFaults, SeededFaults};
    use treecast_core::workload::{Broadcast, Gossip, KSourceBroadcast, WorkloadOutcome};
    use treecast_core::{SequenceSource, StaticSource};
    use treecast_trees::generators;

    #[test]
    fn unconstrained_quiet_path_matches_the_synchronous_engine() {
        for n in [1usize, 2, 5, 9] {
            let cfg = SimulationConfig::for_n(n);
            let mut a = StaticSource::new(generators::path(n));
            let mut b = StaticSource::new(generators::path(n));
            let emulated = run_emulation(
                n,
                &mut a,
                &Broadcast,
                &GossipKnobs::unconstrained(),
                &mut NoFaults,
                cfg,
            );
            let model = run_workload_faulty(n, &mut b, &Broadcast, &mut NoFaults, cfg);
            assert_eq!(emulated, model, "n = {n}");
        }
    }

    #[test]
    fn unconstrained_faulty_star_sequence_matches_the_synchronous_engine() {
        // Rotating star centers under a seeded fault cocktail: the
        // unconstrained emulation must match the dense engine report for
        // report — fault log included.
        let n = 8;
        let trees: Vec<_> = (0..n).map(|c| generators::star_with_center(n, c)).collect();
        let cfg = SimulationConfig::for_n(n);
        let workload = Gossip;
        for seed in [1u64, 7, 0xFEED] {
            let mut a = SequenceSource::new(trees.clone());
            let mut b = SequenceSource::new(trees.clone());
            let mut fa = SeededFaults::new(seed)
                .with_token_loss(20)
                .with_dropout(10, 2)
                .with_root_changes(15);
            let mut fb = SeededFaults::new(seed)
                .with_token_loss(20)
                .with_dropout(10, 2)
                .with_root_changes(15);
            let emulated = run_emulation(
                n,
                &mut a,
                &workload,
                &GossipKnobs::unconstrained(),
                &mut fa,
                cfg,
            );
            let model = run_workload_faulty(n, &mut b, &workload, &mut fb, cfg);
            assert_eq!(emulated, model, "seed = {seed}");
        }
    }

    #[test]
    fn fault_log_replay_reproduces_an_emulation_run() {
        let n = 7;
        let cfg = SimulationConfig::for_n(n).with_max_rounds(48);
        let workload = KSourceBroadcast::evenly_spread(n, 2);
        let knobs = GossipKnobs::unconstrained().with_bandwidth(2);
        let mut source = StaticSource::new(generators::path(n));
        let mut faults = SeededFaults::new(99)
            .with_token_loss(15)
            .with_dropout(10, 2);
        let original = run_emulation(n, &mut source, &workload, &knobs, &mut faults, cfg);
        let mut replay_source = StaticSource::new(generators::path(n));
        let mut replay = FaultSchedule::replay(&original.fault_log);
        let replayed = run_emulation(n, &mut replay_source, &workload, &knobs, &mut replay, cfg);
        assert_eq!(original.completion_time, replayed.completion_time);
        assert_eq!(original.broadcast_time, replayed.broadcast_time);
        assert_eq!(original.fault_log, replayed.fault_log);
        assert_eq!(original.disseminated, replayed.disseminated);
    }

    #[test]
    fn bandwidth_cap_delays_the_star_but_not_forever() {
        // One-round star broadcast stretches to n−1 rounds when the
        // center can ship one payload per round.
        let n = 6;
        let cfg = SimulationConfig::for_n(n);
        let mut source = StaticSource::new(generators::star(n));
        let capped = run_emulation(
            n,
            &mut source,
            &Broadcast,
            &GossipKnobs::unconstrained().with_bandwidth(1),
            &mut NoFaults,
            cfg,
        );
        assert_eq!(capped.completion_time, Some((n - 1) as u64));
        let mut source = StaticSource::new(generators::star(n));
        let free = run_emulation(
            n,
            &mut source,
            &Broadcast,
            &GossipKnobs::unconstrained(),
            &mut NoFaults,
            cfg,
        );
        assert_eq!(free.completion_time, Some(1));
    }

    #[test]
    fn round_budget_censors_a_starved_run() {
        // Fanout 0 sends no adverts at all: nothing ever moves and the
        // runner must stop at the cap with a RoundLimit outcome.
        let n = 4;
        let cfg = SimulationConfig::for_n(n).with_max_rounds(10);
        let mut source = StaticSource::new(generators::path(n));
        let report = run_emulation(
            n,
            &mut source,
            &Broadcast,
            &GossipKnobs::unconstrained().with_fanout(0),
            &mut NoFaults,
            cfg,
        );
        assert_eq!(report.outcome, WorkloadOutcome::RoundLimit);
        assert_eq!(report.completion_time, None);
        assert_eq!(report.rounds, 10);
        assert_eq!(report.fault_log.len(), 10);
    }

    #[test]
    fn traced_hook_sees_every_round() {
        let n = 5;
        let mut rounds_seen = 0u64;
        let mut source = StaticSource::new(generators::path(n));
        let report = run_emulation_traced(
            n,
            &mut source,
            &Broadcast,
            &GossipKnobs::unconstrained(),
            &mut NoFaults,
            SimulationConfig::for_n(n),
            |rf, tree, emu| {
                rounds_seen += 1;
                assert!(rf.is_quiet());
                assert_eq!(tree.n(), n);
                assert_eq!(emu.round(), rounds_seen);
            },
        );
        assert_eq!(rounds_seen, report.rounds);
    }
}
