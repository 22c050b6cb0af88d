//! Workloads: what the processes are trying to disseminate, and when a
//! run counts as finished.
//!
//! The source paper studies single-source broadcast (Definition 2.2); its
//! companion version (arXiv:2211.10151) generalizes the question to
//! **k-broadcast** and **all-to-all gossip**. The [`Workload`] trait names
//! the sources and a termination predicate; [`run_workload`] runs one on
//! the dense engine.
//!
//! # Semantics
//!
//! Every node `x` starts with its own token `x`; after `t` rounds node `y`
//! holds exactly `{x : (x, y) ∈ G(t)}`, the heard-from set
//! [`BroadcastState`] tracks. A token is **disseminated** when every node
//! holds it. The workloads are thresholds on the disseminated count:
//!
//! * [`Broadcast`] — 1 token (Definition 2.2 exactly);
//! * [`KBroadcast`] — `k` tokens; `k = 1` is broadcast;
//! * [`Gossip`] — all `n` tokens (`G(t)` all-ones);
//! * [`KSourceBroadcast`] — only `k` chosen tokens exist, all of which
//!   must be disseminated; token `s` is column `s` of the full state
//!   ([`BroadcastState::disseminated_among`]).
//!
//! Under the unrestricted tree adversary only `k = 1` is guaranteed
//! finite: the static path nests the heard-from sets after `n − 1` rounds
//! and stalls, so `k ≥ 2` and gossip can be delayed forever
//! ([`crate::bounds::tree_k_broadcast_diverges`]).

use treecast_bitmatrix::BoolMatrix;
use treecast_trees::{NodeId, RootedTree};

use crate::drive::{drive, DenseEngine};
use crate::engine::{SimulationConfig, TreeSource};
use crate::model::{check_offline, round_parents_into, BroadcastState};
use crate::scenario::NoFaults;

/// Which nodes start with a token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceSet {
    /// Every node is a source of its own token (the broadcast/gossip
    /// family; state = the full product graph).
    All,
    /// Only these nodes are sources; progress counts only their tokens
    /// ([`BroadcastState::disseminated_among`]).
    Nodes(Vec<NodeId>),
}

/// Per-round dissemination progress handed to
/// [`Workload::is_complete`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadProgress {
    /// Number of processes.
    pub n: usize,
    /// Rounds applied so far.
    pub round: u64,
    /// Total tokens in flight (`n` for [`SourceSet::All`]).
    pub tokens: usize,
    /// Tokens currently held by every node.
    pub disseminated: usize,
}

/// A dissemination workload: sources, token semantics, and a termination
/// predicate.
///
/// Implementations are cheap value objects; the engine queries
/// [`Workload::sources`] once and [`Workload::is_complete`] every round.
pub trait Workload {
    /// Report name (`broadcast`, `k-broadcast(k=2)`, …).
    fn name(&self) -> String;

    /// Which nodes start with a token, given the run size.
    fn sources(&self, n: usize) -> SourceSet {
        let _ = n;
        SourceSet::All
    }

    /// Returns `true` once the run's goal is reached.
    fn is_complete(&self, progress: &WorkloadProgress) -> bool;
}

/// Single-source broadcast — Definition 2.2: stop at the first round where
/// some node's information has reached everyone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Broadcast;

impl Workload for Broadcast {
    fn name(&self) -> String {
        "broadcast".into()
    }

    fn is_complete(&self, progress: &WorkloadProgress) -> bool {
        progress.disseminated >= 1
    }
}

/// `k`-broadcast — the companion paper's generalization: stop once `k`
/// distinct nodes have each completed a broadcast (`k` tokens are held by
/// everyone). `k = 1` is [`Broadcast`], `k = n` is [`Gossip`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KBroadcast {
    k: usize,
}

impl KBroadcast {
    /// A `k`-broadcast workload.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` (completion would be vacuous at round 0 for
    /// every run — almost certainly a bug at the call site).
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "k-broadcast needs at least one token");
        KBroadcast { k }
    }

    /// The dissemination threshold.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl Workload for KBroadcast {
    fn name(&self) -> String {
        format!("k-broadcast(k={})", self.k)
    }

    fn is_complete(&self, progress: &WorkloadProgress) -> bool {
        progress.disseminated >= self.k
    }
}

/// All-to-all gossip: stop once every node has heard from every node
/// (`G(t)` all-ones).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gossip;

impl Workload for Gossip {
    fn name(&self) -> String {
        "gossip".into()
    }

    fn is_complete(&self, progress: &WorkloadProgress) -> bool {
        progress.disseminated >= progress.tokens
    }
}

/// Broadcast from `k` chosen sources: only the sources' tokens exist, and
/// the run completes when all of them have been disseminated.
///
/// Progress reads only the sources' columns of the full state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KSourceBroadcast {
    sources: Vec<NodeId>,
}

impl KSourceBroadcast {
    /// Broadcast of the tokens owned by `sources`.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty or contains duplicates.
    pub fn new(sources: Vec<NodeId>) -> Self {
        assert!(!sources.is_empty(), "need at least one source");
        let mut seen = sources.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), sources.len(), "duplicate source node");
        KSourceBroadcast { sources }
    }

    /// The `k` evenly spread canonical sources `{⌊i·n/k⌋ : 0 ≤ i < k}`
    /// used by the experiments: distinct for `1 ≤ k ≤ n` (consecutive
    /// floors differ by `⌊n/k⌋ ≥ 1`), while `k > n` would repeat nodes.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > n`, with a message naming both values.
    pub fn evenly_spread(n: usize, k: usize) -> Self {
        assert!(
            k >= 1,
            "k-source broadcast needs at least one source (got k = 0, n = {n})"
        );
        assert!(
            k <= n,
            "cannot spread k = {k} distinct sources over n = {n} nodes"
        );
        Self::new((0..k).map(|i| i * n / k).collect())
    }

    /// The chosen sources.
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }
}

impl Workload for KSourceBroadcast {
    fn name(&self) -> String {
        format!("k-source-broadcast(k={})", self.sources.len())
    }

    fn sources(&self, n: usize) -> SourceSet {
        assert!(
            self.sources.iter().all(|&s| s < n),
            "source out of range for n = {n}"
        );
        SourceSet::Nodes(self.sources.clone())
    }

    fn is_complete(&self, progress: &WorkloadProgress) -> bool {
        progress.disseminated >= progress.tokens
    }
}

/// Batched token-subset dissemination state: row `i` is the holder set of
/// token `i` (owned by `sources[i]`), kept in the first `k` rows of one
/// square [`BoolMatrix`].
///
/// A tree round is one [`BoolMatrix::gather_union_prefix`] of the `k` rows
/// along the round's parent map: holder row `i` gains every node whose
/// round parent holds token `i`. That is `k/n`-th of a full-state round,
/// builds no round matrix and does not allocate once the retained
/// buffers have grown. No library run steps it: the dense engine, the
/// tracked adversary search and the nonsplit runs keep a full
/// [`BroadcastState`] and read the tracked tokens off its columns
/// ([`BroadcastState::disseminated_among`]). It stays as the independent
/// reference those column reads are tested against.
#[derive(Debug, Clone)]
pub struct TrackedTokens {
    n: usize,
    round: u64,
    sources: Vec<NodeId>,
    /// Rows `0..sources.len()` are live holder sets; the rest stay zero.
    holders: BoolMatrix,
    /// Retained round buffer: each node's in-neighbour in the round
    /// forest, or the node itself when it has none.
    parent_map: Vec<NodeId>,
    /// Retained gather buffer: one holder row as it was before the round.
    old_row: Vec<u64>,
    /// Double buffer for [`TrackedTokens::apply_matrix`], allocated on
    /// first use.
    scratch: Option<BoolMatrix>,
}

impl TrackedTokens {
    /// A fresh state: token `i` is held only by `sources[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `sources` is empty, or any source is `>= n`.
    pub fn new(n: usize, sources: &[NodeId]) -> Self {
        assert!(n > 0, "the model needs at least one process");
        assert!(!sources.is_empty(), "need at least one source");
        let mut holders = BoolMatrix::zeros(n);
        for (i, &s) in sources.iter().enumerate() {
            assert!(s < n, "source {s} out of range for n = {n}");
            holders.set(i, s, true);
        }
        TrackedTokens {
            n,
            round: 0,
            sources: sources.to_vec(),
            holders,
            parent_map: Vec::new(),
            old_row: Vec::new(),
            scratch: None,
        }
    }

    /// Number of processes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Rounds applied so far.
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The tracked sources, in token order.
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// The holder set of token `i` as a zero-copy row view.
    ///
    /// # Panics
    ///
    /// Panics if `i >= sources().len()`.
    pub fn holders(&self, i: usize) -> treecast_bitmatrix::RowRef<'_> {
        assert!(i < self.sources.len(), "token {i} out of range");
        self.holders.row(i)
    }

    /// Number of tokens currently held by every node.
    pub fn disseminated_count(&self) -> usize {
        (0..self.sources.len())
            .filter(|&i| self.holders.row(i).is_full())
            .count()
    }

    /// Applies one synchronous round along `tree` (self-loops implied):
    /// each holder row becomes `row ∘ (T + I)`.
    ///
    /// # Panics
    ///
    /// Panics if `tree.n() != self.n()`.
    pub fn apply(&mut self, tree: &RootedTree) {
        self.apply_round(tree, &[]);
    }

    /// Applies one synchronous round along `tree` with the `offline` nodes
    /// dropped out, mirroring [`BroadcastState::apply_round`]: a tree edge
    /// carries nothing when either end is offline.
    ///
    /// # Panics
    ///
    /// Panics if `tree.n() != self.n()`, or `offline` is not sorted
    /// ascending or names a node `>= n`.
    pub fn apply_round(&mut self, tree: &RootedTree, offline: &[NodeId]) {
        assert_eq!(
            tree.n(),
            self.n,
            "round tree has {} nodes but the state has {}",
            tree.n(),
            self.n
        );
        check_offline(offline, self.n);
        round_parents_into(tree, offline, &mut self.parent_map);
        self.holders
            .gather_union_prefix(self.sources.len(), &self.parent_map, &mut self.old_row);
        self.round += 1;
    }

    /// Applies one synchronous round along an arbitrary directed graph
    /// `m` (self-loops are **not** implied): holder row `i` becomes the
    /// union of `m.row(p)` over its holders `p`, built in the retained
    /// scratch rows.
    ///
    /// # Panics
    ///
    /// Panics if `m.n() != self.n()`.
    pub fn apply_matrix(&mut self, m: &BoolMatrix) {
        assert_eq!(
            m.n(),
            self.n,
            "round matrix has {} nodes but the state has {}",
            m.n(),
            self.n
        );
        let next = self
            .scratch
            .get_or_insert_with(|| BoolMatrix::zeros(self.n));
        for i in 0..self.sources.len() {
            let mut row = next.row_mut(i);
            row.clear();
            for p in self.holders.row(i) {
                row.union_with(m.row(p));
            }
        }
        std::mem::swap(&mut self.holders, next);
        self.round += 1;
    }

    /// Token-loss fault: node `y` is removed from every tracked holder set
    /// except that of its own token (mirroring
    /// [`BroadcastState::forget`], restricted to the tracked rows).
    ///
    /// Scenario-layer primitive ([`crate::scenario`]); the round counter
    /// is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `y >= n`.
    pub fn forget(&mut self, y: NodeId) {
        assert!(y < self.n, "node {y} out of range for n = {}", self.n);
        for (i, &s) in self.sources.iter().enumerate() {
            if s != y {
                self.holders.row_mut(i).remove(y);
            }
        }
    }

    /// The progress summary the workload predicates consume.
    pub fn progress(&self) -> WorkloadProgress {
        WorkloadProgress {
            n: self.n,
            round: self.round,
            tokens: self.sources.len(),
            disseminated: self.disseminated_count(),
        }
    }
}

/// The dissemination progress of a full [`BroadcastState`]
/// ([`SourceSet::All`] semantics: every node sources its own token).
pub fn full_state_progress(state: &BroadcastState) -> WorkloadProgress {
    WorkloadProgress {
        n: state.n(),
        round: state.round(),
        tokens: state.n(),
        disseminated: state.disseminated_count(),
    }
}

/// The dissemination progress of a full [`BroadcastState`] on the tokens
/// of `sources` only ([`SourceSet::Nodes`] semantics).
///
/// # Panics
///
/// Panics if a source is `>= n`.
pub fn tracked_progress(state: &BroadcastState, sources: &[NodeId]) -> WorkloadProgress {
    WorkloadProgress {
        n: state.n(),
        round: state.round(),
        tokens: sources.len(),
        disseminated: state.disseminated_among(sources),
    }
}

/// Why a workload run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum WorkloadOutcome {
    /// The workload's termination predicate fired.
    Completed,
    /// The round cap was hit first (worst-case `k ≥ 2` tree runs do this
    /// by design — see [`crate::bounds::tree_k_broadcast_diverges`]).
    RoundLimit,
}

/// Summary of a finished workload run.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct WorkloadReport {
    /// Number of processes.
    pub n: usize,
    /// Workload name.
    pub workload: String,
    /// Tree-source name.
    pub source: String,
    /// Rounds executed.
    pub rounds: u64,
    /// Why the run stopped.
    pub outcome: WorkloadOutcome,
    /// First round at which the workload was complete, if reached.
    pub completion_time: Option<u64>,
    /// First round with at least one token disseminated (the classic
    /// broadcast time), if reached.
    pub broadcast_time: Option<u64>,
    /// Tokens disseminated when the run stopped.
    pub disseminated: usize,
    /// Total tokens in flight.
    pub tokens: usize,
    /// The faults actually applied, one entry per executed round (empty
    /// for fault-free runs). Replaying this log through
    /// [`crate::scenario::FaultSchedule::replay`] reproduces the run
    /// bit-identically.
    pub fault_log: Vec<crate::scenario::RoundFaults>,
}

impl WorkloadReport {
    /// The completion time, panicking with context if the run capped out.
    ///
    /// # Panics
    ///
    /// Panics if the workload did not complete.
    #[expect(
        clippy::panic,
        reason = "documented panicking accessor (the _or_panic suffix is the contract)"
    )]
    pub fn completion_time_or_panic(&self) -> u64 {
        self.completion_time.unwrap_or_else(|| {
            panic!(
                "workload {:?} under {:?} did not complete within {} rounds at n = {} \
                 ({}/{} tokens disseminated)",
                self.workload, self.source, self.rounds, self.n, self.disseminated, self.tokens
            )
        })
    }
}

/// Runs `source` against a fresh `n`-process state until `workload`
/// completes or `config.max_rounds` passes — [`drive`] on the
/// [`DenseEngine`], fault-free, with an empty `fault_log`.
///
/// # Examples
///
/// ```
/// use treecast_core::{run_workload, Gossip, KBroadcast, SimulationConfig, StaticSource};
/// use treecast_trees::generators;
///
/// let n = 6;
/// // One star round disseminates the center's token:
/// let mut star = StaticSource::new(generators::star(n));
/// let report = run_workload(n, &mut star, &KBroadcast::new(1), SimulationConfig::for_n(n));
/// assert_eq!(report.completion_time, Some(1));
///
/// // ... but a static star never completes gossip (leaf tokens are stuck).
/// let mut star = StaticSource::new(generators::star(n));
/// let report = run_workload(n, &mut star, &Gossip, SimulationConfig::for_n(n));
/// assert_eq!(report.completion_time, None);
/// ```
///
/// # Panics
///
/// Panics if `n == 0`, a source node is out of range, or the tree source
/// produces a tree of the wrong size.
pub fn run_workload<S: TreeSource + ?Sized, W: Workload + ?Sized>(
    n: usize,
    source: &mut S,
    workload: &W,
    config: SimulationConfig,
) -> WorkloadReport {
    let mut engine = DenseEngine::new(n, source, workload);
    drive(&mut engine, workload, &mut NoFaults, config, false, &mut ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SequenceSource, StaticSource};
    use treecast_trees::generators;

    #[test]
    fn k_equals_one_is_broadcast_and_k_equals_n_is_gossip() {
        let n = 5;
        // A rotating star completes gossip after a star on every center.
        let schedule: Vec<_> = (0..n).map(|c| generators::star_with_center(n, c)).collect();
        let mut s1 = SequenceSource::new(schedule.clone());
        let mut s2 = SequenceSource::new(schedule.clone());
        let mut s3 = SequenceSource::new(schedule.clone());
        let mut s4 = SequenceSource::new(schedule);
        let cfg = SimulationConfig::for_n(n);
        let b = run_workload(n, &mut s1, &Broadcast, cfg);
        let k1 = run_workload(n, &mut s2, &KBroadcast::new(1), cfg);
        let kn = run_workload(n, &mut s3, &KBroadcast::new(n), cfg);
        let g = run_workload(n, &mut s4, &Gossip, cfg);
        assert_eq!(b.completion_time, k1.completion_time);
        assert_eq!(kn.completion_time, g.completion_time);
        assert!(g.completion_time.unwrap() >= b.completion_time.unwrap());
    }

    #[test]
    fn k_broadcast_monotone_in_k() {
        let n = 6;
        let schedule: Vec<_> = (0..n).map(|c| generators::star_with_center(n, c)).collect();
        let mut prev = 0;
        for k in 1..=n {
            let mut src = SequenceSource::new(schedule.clone());
            let r = run_workload(n, &mut src, &KBroadcast::new(k), SimulationConfig::for_n(n));
            let t = r.completion_time_or_panic();
            assert!(t >= prev, "k-broadcast must be monotone in k ({k})");
            prev = t;
        }
    }

    #[test]
    fn static_path_diverges_for_k_at_least_2() {
        // The worst-case witness behind bounds::tree_k_broadcast_diverges:
        // after n − 1 path rounds the heard sets are nested and no further
        // round of the same path makes progress.
        let n = 5;
        let mut src = StaticSource::new(generators::path(n));
        let r = run_workload(
            n,
            &mut src,
            &KBroadcast::new(2),
            SimulationConfig::for_n(n).with_max_rounds(200),
        );
        assert_eq!(r.outcome, WorkloadOutcome::RoundLimit);
        assert_eq!(r.disseminated, 1, "only the path root's token spreads");
        assert_eq!(r.broadcast_time, Some((n - 1) as u64));
    }

    #[test]
    fn tracked_tokens_agree_with_full_state() {
        // Holder row i of a tracked run must equal the reach set of
        // sources[i] in the full product state, round for round.
        let n = 7;
        let sources = vec![0usize, 3, 6];
        let mut tracked = TrackedTokens::new(n, &sources);
        let mut full = BroadcastState::new(n);
        let rounds = [
            generators::path(n),
            generators::star_with_center(n, 3),
            generators::broom(n, 2),
            generators::caterpillar(n, 3),
            generators::path(n),
        ];
        for tree in &rounds {
            tracked.apply(tree);
            full.apply(tree);
            for (i, &s) in sources.iter().enumerate() {
                assert_eq!(
                    tracked.holders(i).to_bitset(),
                    full.reach_set(s),
                    "token {i} (source {s}) diverged at round {}",
                    full.round()
                );
            }
        }
    }

    #[test]
    fn tracked_tokens_matrix_rounds() {
        let n = 6;
        let sources = vec![1usize, 4];
        let mut tracked = TrackedTokens::new(n, &sources);
        let mut full = BroadcastState::new(n);
        let m = BoolMatrix::from_edges(n, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let mut reflexive = m.clone();
        reflexive.add_self_loops();
        for _ in 0..4 {
            tracked.apply_matrix(&reflexive);
            full.apply_matrix(&reflexive);
            for (i, &s) in sources.iter().enumerate() {
                assert_eq!(tracked.holders(i).to_bitset(), full.reach_set(s));
            }
        }
    }

    #[test]
    fn k_source_broadcast_completes_under_rotating_stars() {
        let n = 6;
        let workload = KSourceBroadcast::evenly_spread(n, 3);
        let schedule: Vec<_> = (0..n).map(|c| generators::star_with_center(n, c)).collect();
        let mut src = SequenceSource::new(schedule);
        let r = run_workload(n, &mut src, &workload, SimulationConfig::for_n(n));
        let t = r.completion_time_or_panic();
        assert!(t <= n as u64);
        assert_eq!(r.tokens, 3);
        assert_eq!(r.disseminated, 3);
    }

    #[test]
    fn k_source_names_and_sources() {
        let w = KSourceBroadcast::evenly_spread(8, 4);
        assert_eq!(w.sources(), &[0, 2, 4, 6]);
        assert!(Workload::name(&w).contains("k=4"));
        assert!(matches!(Workload::sources(&w, 8), SourceSet::Nodes(_)));
    }

    #[test]
    #[should_panic(expected = "at least one token")]
    fn k_zero_rejected() {
        KBroadcast::new(0);
    }

    #[test]
    #[should_panic(expected = "duplicate source")]
    fn duplicate_sources_rejected() {
        KSourceBroadcast::new(vec![1, 1]);
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn evenly_spread_rejects_k_zero() {
        KSourceBroadcast::evenly_spread(6, 0);
    }

    #[test]
    #[should_panic(expected = "cannot spread k = 7 distinct sources over n = 6")]
    fn evenly_spread_rejects_k_above_n() {
        KSourceBroadcast::evenly_spread(6, 7);
    }

    #[test]
    fn evenly_spread_edges_of_the_contract() {
        // k = 1: the single canonical source.
        assert_eq!(KSourceBroadcast::evenly_spread(6, 1).sources(), &[0]);
        // k = n: every node, i.e. the gossip source set — and the floor
        // formula must yield each node exactly once.
        let all = KSourceBroadcast::evenly_spread(6, 6);
        assert_eq!(all.sources(), &[0, 1, 2, 3, 4, 5]);
        // Distinctness holds across the whole legal range (the contract's
        // "consecutive floors differ" argument, checked exhaustively).
        for n in 1..=24usize {
            for k in 1..=n {
                let w = KSourceBroadcast::evenly_spread(n, k);
                assert_eq!(w.sources().len(), k, "n = {n}, k = {k}");
            }
        }
    }

    #[test]
    fn tracked_forget_mirrors_full_state_forget() {
        let n = 6;
        let sources = vec![0usize, 2, 4];
        let mut tracked = TrackedTokens::new(n, &sources);
        let mut full = BroadcastState::new(n);
        for tree in &[generators::star(n), generators::path(n)] {
            tracked.apply(tree);
            full.apply(tree);
        }
        tracked.forget(2);
        full.forget(2);
        for (i, &s) in sources.iter().enumerate() {
            assert_eq!(
                tracked.holders(i).to_bitset(),
                full.reach_set(s),
                "token {i} diverged after forget"
            );
        }
        // Node 2 keeps its own token.
        assert!(tracked.holders(1).contains(2));
    }

    #[test]
    fn single_node_everything_is_instant() {
        let mut src = StaticSource::new(generators::star(1));
        let r = run_workload(1, &mut src, &Gossip, SimulationConfig::for_n(1));
        assert_eq!(r.completion_time, Some(0));
        assert_eq!(r.rounds, 0);
    }

    #[test]
    fn workload_names() {
        assert_eq!(Broadcast.name(), "broadcast");
        assert_eq!(KBroadcast::new(3).name(), "k-broadcast(k=3)");
        assert_eq!(Gossip.name(), "gossip");
    }
}
