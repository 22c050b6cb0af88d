//! Tree sources — the adversary interface of Definition 2.3 — and the
//! run configuration.

use treecast_trees::RootedTree;

use crate::model::BroadcastState;

/// Produces the round-`t` tree, possibly as a function of the current
/// product-graph state — this is Definition 2.3's adversary interface.
///
/// Implementations live in `treecast-adversary`; [`SequenceSource`] and
/// [`StaticSource`] are provided here because the engine, solver and
/// nonsplit crates all need to replay fixed schedules.
pub trait TreeSource {
    /// The tree for the next round, given the state *before* the round.
    fn next_tree(&mut self, state: &BroadcastState) -> RootedTree;

    /// Human-readable name used in reports and experiment tables.
    fn name(&self) -> String {
        "anonymous".to_string()
    }
}

impl<T: TreeSource + ?Sized> TreeSource for &mut T {
    fn next_tree(&mut self, state: &BroadcastState) -> RootedTree {
        (**self).next_tree(state)
    }

    fn name(&self) -> String {
        (**self).name()
    }
}

impl<T: TreeSource + ?Sized> TreeSource for Box<T> {
    fn next_tree(&mut self, state: &BroadcastState) -> RootedTree {
        (**self).next_tree(state)
    }

    fn name(&self) -> String {
        (**self).name()
    }
}

/// Repeats one fixed tree every round (e.g. the static path of Section 2).
///
/// # Examples
///
/// The static path takes exactly `n − 1` rounds to broadcast:
///
/// ```
/// use treecast_core::{run_workload, Broadcast, SimulationConfig, StaticSource};
/// use treecast_trees::generators;
///
/// let n = 6;
/// let mut source = StaticSource::new(generators::path(n));
/// let report = run_workload(n, &mut source, &Broadcast, SimulationConfig::for_n(n));
/// assert_eq!(report.completion_time, Some(5));
/// ```
#[derive(Debug, Clone)]
pub struct StaticSource {
    tree: RootedTree,
    label: String,
}

impl StaticSource {
    /// A source that plays `tree` forever.
    pub fn new(tree: RootedTree) -> Self {
        let label = format!("static({})", summarize(&tree));
        StaticSource { tree, label }
    }

    /// Overrides the report label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

pub(crate) fn summarize(tree: &RootedTree) -> &'static str {
    if tree.is_path() {
        "path"
    } else if tree.is_star() {
        "star"
    } else {
        "tree"
    }
}

impl TreeSource for StaticSource {
    fn next_tree(&mut self, _state: &BroadcastState) -> RootedTree {
        self.tree.clone()
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

/// Plays a fixed schedule of trees, then repeats the last one.
///
/// Used to replay optimal sequences extracted by the exact solver and
/// beam-searched schedules.
#[derive(Debug, Clone)]
pub struct SequenceSource {
    trees: Vec<RootedTree>,
    next: usize,
    label: String,
}

impl SequenceSource {
    /// A source that plays `trees` in order; after the schedule runs out it
    /// keeps repeating the final tree.
    ///
    /// # Panics
    ///
    /// Panics if `trees` is empty.
    pub fn new(trees: Vec<RootedTree>) -> Self {
        assert!(!trees.is_empty(), "schedule needs at least one tree");
        SequenceSource {
            label: format!("sequence(len={})", trees.len()),
            trees,
            next: 0,
        }
    }

    /// Overrides the report label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// The full schedule.
    pub fn trees(&self) -> &[RootedTree] {
        &self.trees
    }
}

impl TreeSource for SequenceSource {
    fn next_tree(&mut self, _state: &BroadcastState) -> RootedTree {
        let idx = self.next.min(self.trees.len() - 1);
        self.next += 1;
        self.trees[idx].clone()
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

/// Run configuration shared by every engine entry point.
#[derive(Debug, Clone, Copy)]
pub struct SimulationConfig {
    /// Hard cap on rounds; a run that hits it reports
    /// [`WorkloadOutcome::RoundLimit`](crate::WorkloadOutcome::RoundLimit).
    /// Defaults to `8n + 16` via [`SimulationConfig::for_n`].
    pub max_rounds: u64,
}

impl SimulationConfig {
    /// The default configuration for an `n`-process run: cap at `8n + 16`
    /// rounds (comfortably above the paper's `⌈(1+√2)n−1⌉` theorem bound,
    /// so a broadcast run hitting it indicates a bug).
    pub fn for_n(n: usize) -> Self {
        SimulationConfig {
            max_rounds: 8 * n as u64 + 16,
        }
    }

    /// Replaces the round cap.
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::{drive, DenseEngine, Probe};
    use crate::scenario::{NoFaults, RoundFaults};
    use crate::workload::{run_workload, Broadcast, Gossip, WorkloadOutcome, WorkloadReport};
    use treecast_trees::generators;

    #[test]
    fn static_path_takes_n_minus_1() {
        for n in 2..10 {
            let mut source = StaticSource::new(generators::path(n));
            let mut witness = None;
            let report = drive(
                &mut DenseEngine::new(n, &mut source, &Broadcast),
                &Broadcast,
                &mut NoFaults,
                SimulationConfig::for_n(n),
                false,
                &mut |_: &RoundFaults, _: &RootedTree, state: &BroadcastState| {
                    witness = state.broadcast_witness();
                },
            );
            assert_eq!(report.completion_time, Some((n - 1) as u64), "n = {n}");
            assert_eq!(report.outcome, WorkloadOutcome::Completed);
            assert_eq!(witness, Some(0));
        }
    }

    #[test]
    fn static_star_takes_1() {
        let mut source = StaticSource::new(generators::star(9));
        let report = run_workload(9, &mut source, &Broadcast, SimulationConfig::for_n(9));
        assert_eq!(report.completion_time, Some(1));
    }

    #[test]
    fn single_process_is_instant() {
        let mut source = StaticSource::new(generators::star(1));
        let report = run_workload(1, &mut source, &Broadcast, SimulationConfig::for_n(1));
        assert_eq!(report.completion_time, Some(0));
        assert_eq!(report.rounds, 0);
    }

    #[test]
    fn gossip_on_static_path_hits_round_limit() {
        let n = 4;
        let mut source = StaticSource::new(generators::path(n));
        let report = run_workload(n, &mut source, &Gossip, SimulationConfig::for_n(n));
        assert_eq!(report.outcome, WorkloadOutcome::RoundLimit);
        assert_eq!(report.broadcast_time, Some((n - 1) as u64));
        assert_eq!(report.completion_time, None);
    }

    #[test]
    fn sequence_source_replays_then_repeats() {
        let n = 4;
        // One star round broadcasts instantly; schedule paths first.
        let schedule = vec![
            generators::path(n),
            generators::path(n),
            generators::star(n),
        ];
        let mut source = SequenceSource::new(schedule);
        let report = run_workload(n, &mut source, &Broadcast, SimulationConfig::for_n(n));
        assert_eq!(report.completion_time, Some(3));
    }

    #[test]
    fn sequence_source_exposes_schedule() {
        let s = SequenceSource::new(vec![generators::path(3)]);
        assert_eq!(s.trees().len(), 1);
        assert!(s.name().contains("sequence"));
    }

    #[test]
    fn observer_sees_every_round() {
        struct Counter {
            rounds: u64,
            finishes: u64,
        }
        impl Probe<BroadcastState> for Counter {
            fn on_round(&mut self, _: &RoundFaults, _: &RootedTree, _: &BroadcastState) {
                self.rounds += 1;
            }
            fn on_finish(&mut self, report: &WorkloadReport) {
                self.finishes += 1;
                assert_eq!(report.rounds, self.rounds);
            }
        }
        let n = 5;
        let mut counter = Counter {
            rounds: 0,
            finishes: 0,
        };
        let mut source = StaticSource::new(generators::path(n));
        drive(
            &mut DenseEngine::new(n, &mut source, &Broadcast),
            &Broadcast,
            &mut NoFaults,
            SimulationConfig::for_n(n),
            false,
            &mut counter,
        );
        assert_eq!(counter.rounds, (n - 1) as u64);
        assert_eq!(counter.finishes, 1);
    }

    #[test]
    fn labels_flow_into_reports() {
        let n = 3;
        let mut source = StaticSource::new(generators::path(n)).with_label("my-path");
        let report = run_workload(n, &mut source, &Broadcast, SimulationConfig::for_n(n));
        assert_eq!(report.source, "my-path");
    }
}
