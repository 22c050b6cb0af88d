//! The round driver: the paper's synchronous loop, written once.
//!
//! [`drive`] owns the per-round sequence; a [`RoundEngine`] only says how
//! a round is stepped and how progress is counted: [`DenseEngine`] (the
//! product graph), [`FrontierEngine`](crate::FrontierEngine),
//! [`PrefixEngine`](crate::PrefixEngine) and `treecast-emulation`'s
//! `EmulationEngine`. `drive` is generic over the engine and the
//! [`Probe`], so the no-op probe `()` compiles away.

use treecast_trees::{NodeId, RootedTree};

use crate::engine::{SimulationConfig, TreeSource};
use crate::model::BroadcastState;
use crate::scenario::{FaultModel, RoundFaults};
use crate::workload::{
    full_state_progress, SourceSet, Workload, WorkloadOutcome, WorkloadProgress, WorkloadReport,
};

/// One way of stepping a round: a state plus the source that feeds it.
pub trait RoundEngine {
    /// What a [`Probe`] sees after each round.
    type State: ?Sized;

    /// Plays one round under the normalized `faults` and returns its
    /// (re-rooted) tree and the state after it, or `None` when the source
    /// is exhausted.
    fn step(&mut self, faults: &RoundFaults) -> Option<(&RootedTree, &Self::State)>;

    /// Dissemination progress over the workload's tokens.
    fn progress(&self) -> WorkloadProgress;

    /// Whether some token — tracked or not — is held by everyone: the
    /// classic broadcast witness behind [`WorkloadReport::broadcast_time`].
    fn any_disseminated(&self, progress: &WorkloadProgress) -> bool {
        progress.disseminated >= 1
    }

    /// Report name of the source.
    fn source_name(&self) -> String;
}

/// Hooks [`drive`] calls as a run progresses; both default to no-ops.
/// `()` is the no-op probe, and any `FnMut(&RoundFaults, &RootedTree, &S)`
/// closure is a probe that sees every round.
pub trait Probe<S: ?Sized> {
    /// Called after each round with its normalized faults, its tree, and
    /// the state after it.
    fn on_round(&mut self, faults: &RoundFaults, tree: &RootedTree, state: &S) {
        let _ = (faults, tree, state);
    }

    /// Called once with the finished report.
    fn on_finish(&mut self, report: &WorkloadReport) {
        let _ = report;
    }
}

impl<S: ?Sized> Probe<S> for () {}

impl<S: ?Sized, F: FnMut(&RoundFaults, &RootedTree, &S)> Probe<S> for F {
    fn on_round(&mut self, faults: &RoundFaults, tree: &RootedTree, state: &S) {
        self(faults, tree, state);
    }
}

/// Runs `engine` until `workload` completes, `config.max_rounds` rounds
/// have run, or the source is exhausted.
///
/// Each round: query `faults` (rounds count from 1), normalize, step,
/// show the round to `probe`, log the faults if `record_log`, and check
/// the workload on the end-of-round progress. Completion and broadcast
/// are checked at round 0 too (`n = 1`). Replaying the log through
/// [`FaultSchedule::replay`](crate::FaultSchedule::replay) reproduces the
/// run bit-identically; fault-free runs keep no log, so a million-round
/// run does not grow one.
///
/// # Examples
///
/// ```
/// use treecast_core::{drive, Broadcast, BroadcastState, DenseEngine, NoFaults, RoundFaults};
/// use treecast_core::{SimulationConfig, StaticSource};
/// use treecast_trees::{generators, RootedTree};
///
/// let n = 6;
/// let mut source = StaticSource::new(generators::path(n));
/// let mut engine = DenseEngine::new(n, &mut source, &Broadcast);
/// let mut edges = Vec::new();
/// let mut probe = |_: &RoundFaults, _: &RootedTree, s: &BroadcastState| {
///     edges.push(s.edge_count())
/// };
/// let cfg = SimulationConfig::for_n(n);
/// let report = drive(&mut engine, &Broadcast, &mut NoFaults, cfg, false, &mut probe);
/// assert_eq!((report.completion_time, edges.len()), (Some(5), 5));
/// ```
///
/// # Panics
///
/// Panics if a fault names a node `>= n`, or on the engine's own
/// conditions (a tree of the wrong size).
pub fn drive<E, W, F, P>(
    engine: &mut E,
    workload: &W,
    faults: &mut F,
    config: SimulationConfig,
    record_log: bool,
    probe: &mut P,
) -> WorkloadReport
where
    E: RoundEngine + ?Sized,
    W: Workload + ?Sized,
    F: FaultModel + ?Sized,
    P: Probe<E::State> + ?Sized,
{
    let mut progress = engine.progress();
    let n = progress.n;
    let mut completion_time = workload.is_complete(&progress).then_some(0);
    let mut broadcast_time = engine.any_disseminated(&progress).then_some(0);
    let mut fault_log = Vec::new();

    while completion_time.is_none() && progress.round < config.max_rounds {
        let mut rf = faults.faults(progress.round + 1, n);
        rf.normalize(n);
        let Some((tree, state)) = engine.step(&rf) else {
            break;
        };
        probe.on_round(&rf, tree, state);
        if record_log {
            fault_log.push(rf);
        }
        progress = engine.progress();
        if workload.is_complete(&progress) {
            completion_time = Some(progress.round);
        }
        if broadcast_time.is_none() && engine.any_disseminated(&progress) {
            broadcast_time = Some(progress.round);
        }
    }

    let report = WorkloadReport {
        n,
        workload: workload.name(),
        source: engine.source_name(),
        rounds: progress.round,
        outcome: match completion_time {
            Some(_) => WorkloadOutcome::Completed,
            None => WorkloadOutcome::RoundLimit,
        },
        completion_time,
        broadcast_time,
        disseminated: progress.disseminated,
        tokens: progress.tokens,
        fault_log,
    };
    probe.on_finish(&report);
    report
}

/// The dense engine: the product graph `G(t)` as a [`BroadcastState`]
/// (what state-reading adversaries see). Every round, quiet or faulty,
/// steps it along the round tree's parent array with the offline nodes'
/// edges dropped (self-loops kept), then applies the losses; no round
/// matrix is built. A [`SourceSet::Nodes`] workload's tokens are the
/// product's columns at its sources, so their progress is read off the
/// same state ([`BroadcastState::disseminated_among`]).
pub struct DenseEngine<'a, S: ?Sized> {
    source: &'a mut S,
    state: BroadcastState,
    /// The tracked sources, or `None` for [`SourceSet::All`].
    sources: Option<Vec<NodeId>>,
    tree: Option<RootedTree>,
}

impl<'a, S: TreeSource + ?Sized> DenseEngine<'a, S> {
    /// A fresh `n`-process engine for `workload`'s tokens.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, or the workload tracks no source or one out of
    /// range.
    pub fn new<W: Workload + ?Sized>(n: usize, source: &'a mut S, workload: &W) -> Self {
        let state = BroadcastState::new(n);
        let sources = match workload.sources(n) {
            SourceSet::All => None,
            SourceSet::Nodes(sources) => {
                assert!(!sources.is_empty(), "need at least one source");
                for &s in &sources {
                    assert!(s < n, "source {s} out of range for n = {n}");
                }
                Some(sources)
            }
        };
        DenseEngine {
            source,
            state,
            sources,
            tree: None,
        }
    }
}

impl<S: TreeSource + ?Sized> RoundEngine for DenseEngine<'_, S> {
    type State = BroadcastState;

    fn step(&mut self, faults: &RoundFaults) -> Option<(&RootedTree, &BroadcastState)> {
        let mut tree = self.source.next_tree(&self.state);
        if let Some(r) = faults.root {
            tree = tree.rerooted(r);
        }
        self.state.apply_round(&tree, &faults.offline);
        for &y in &faults.losses {
            self.state.forget(y);
        }
        Some((self.tree.insert(tree), &self.state))
    }

    fn progress(&self) -> WorkloadProgress {
        match &self.sources {
            Some(sources) => WorkloadProgress {
                n: self.state.n(),
                round: self.state.round(),
                tokens: sources.len(),
                disseminated: self.state.disseminated_among(sources),
            },
            None => full_state_progress(&self.state),
        }
    }

    fn any_disseminated(&self, progress: &WorkloadProgress) -> bool {
        match self.sources {
            Some(_) => self.state.disseminated_count() >= 1,
            None => progress.disseminated >= 1,
        }
    }

    fn source_name(&self) -> String {
        self.source.name()
    }
}
