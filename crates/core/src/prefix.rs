//! Precomposed prefix products: run any [`Workload`] off a stream of
//! round-prefix products instead of stepping a state per source.
//!
//! Token `x` is disseminated at round `t` iff row `x` of
//! `G(t) = A₁ ∘ … ∘ A_t` is full. The reversed product
//! `R(t) = G(t)ᵀ` extends by one **left** composition,
//!
//! ```text
//! R(t+1) = A_{t+1}ᵀ ∘ R(t),
//! ```
//!
//! Row `y` of `R(t)` is `y`'s heard-from set, and `A_{t+1}ᵀ` has only the
//! edges `y → y` and `y → parent(y)`, so that step is one
//! [`BroadcastState`] round along the parent array. One such round serves
//! every source, and the AND of all rows is the disseminated-token mask.
//!
//! A [`PrefixProvider`] streams the products — [`ComposedPrefixes`]
//! directly, the server's cache from warm entries — and
//! [`run_workload_prefixes`] drives a workload off them. Faults break the
//! product structure, so this is the fault-free path.

use treecast_bitmatrix::{BitSet, BoolMatrix};
use treecast_trees::RootedTree;

use crate::drive::{drive, RoundEngine};
use crate::engine::SimulationConfig;
use crate::model::BroadcastState;
use crate::scenario::{NoFaults, RoundFaults};
use crate::workload::{SourceSet, Workload, WorkloadProgress, WorkloadReport};

/// One round's precomposed prefix product, in heard view.
#[derive(Debug, Clone, Copy)]
pub struct PrefixRound<'a> {
    /// The 1-based round this prefix covers.
    pub round: u64,
    /// The round's tree `A_t` (the schedule's last tree, once it repeats).
    pub tree: &'a RootedTree,
    /// `R(t) = G(t)ᵀ`: row `y` is the heard-from set of node `y` after
    /// `t` rounds.
    pub heard: &'a BoolMatrix,
    /// The disseminated-token mask — bit `x` set iff every node has heard
    /// from `x` (row `x` of `G(t)` is full). The AND of all `heard` rows.
    pub disseminated: &'a BitSet,
}

/// A stream of round-prefix products `R(1), R(2), …` for one tree
/// schedule, each composed once for all sources. `next_prefix` returns
/// `None` when the schedule is exhausted.
pub trait PrefixProvider {
    /// Number of processes.
    fn n(&self) -> usize;

    /// Advances to the next round and exposes its prefix product.
    fn next_prefix(&mut self) -> Option<PrefixRound<'_>>;

    /// Report label (mirrors `TreeSource::name`, so prefix-driven reports
    /// compare equal to engine-driven ones).
    fn name(&self) -> String;
}

/// Computes the disseminated-token mask of a heard-view product: the AND
/// of all rows, stopping at the first empty meet (public for providers
/// that memoize it).
pub fn disseminated_mask(heard: &BoolMatrix, out: &mut BitSet) {
    let n = heard.n();
    assert_eq!(
        out.universe_size(),
        n,
        "mask universe must match the matrix"
    );
    if n == 0 {
        return;
    }
    out.copy_from(heard.row(0));
    for y in 1..n {
        if out.is_empty() {
            break;
        }
        out.intersect_with(heard.row(y));
    }
}

/// The direct [`PrefixProvider`]: steps `R(t+1) = A_{t+1}ᵀ ∘ R(t)` as one
/// [`BroadcastState`] round per tree, repeating the last tree forever (as
/// `SequenceSource` does), with no steady-state allocation.
#[derive(Debug, Clone)]
pub struct ComposedPrefixes {
    trees: Vec<RootedTree>,
    /// `R(t)`; starts as the identity (`R(0)`).
    state: BroadcastState,
    mask: BitSet,
    label: String,
}

impl ComposedPrefixes {
    /// A provider over `trees`, repeating the last tree once the sequence
    /// is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `trees` is empty or the trees disagree on `n`.
    pub fn new(trees: Vec<RootedTree>) -> Self {
        assert!(!trees.is_empty(), "need at least one tree");
        let n = trees[0].n();
        for t in &trees {
            assert_eq!(t.n(), n, "all trees must have the same node count");
        }
        let label = format!("sequence(len={})", trees.len());
        ComposedPrefixes {
            trees,
            state: BroadcastState::new(n),
            mask: BitSet::new(n),
            label,
        }
    }

    /// Overrides the report label.
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// The schedule (without the implied repetition).
    pub fn trees(&self) -> &[RootedTree] {
        &self.trees
    }
}

impl PrefixProvider for ComposedPrefixes {
    fn n(&self) -> usize {
        self.state.n()
    }

    fn next_prefix(&mut self) -> Option<PrefixRound<'_>> {
        let idx = (self.state.round() as usize).min(self.trees.len() - 1);
        let tree = &self.trees[idx];
        self.state.apply(tree);
        disseminated_mask(self.state.heard(), &mut self.mask);
        Some(PrefixRound {
            round: self.state.round(),
            tree,
            heard: self.state.heard(),
            disseminated: &self.mask,
        })
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

/// The prefix engine for [`drive`]: reads each round's dissemination
/// count off a [`PrefixProvider`] instead of stepping a state; a probe
/// sees the heard view `R(t)`. Fault-free: a faulty round panics.
pub struct PrefixEngine<'a, P: ?Sized> {
    provider: &'a mut P,
    progress: WorkloadProgress,
    /// The workload's sources as a mask; `None` counts all `n` tokens.
    sources: Option<BitSet>,
    any_disseminated: bool,
}

impl<'a, P: PrefixProvider + ?Sized> PrefixEngine<'a, P> {
    /// An engine over `provider` counting `workload`'s tokens.
    ///
    /// # Panics
    ///
    /// Panics if `provider.n() == 0` or a workload source is out of range.
    pub fn new<W: Workload + ?Sized>(provider: &'a mut P, workload: &W) -> Self {
        let n = provider.n();
        assert!(n > 0, "the model needs at least one process");
        let (tokens, sources) = match workload.sources(n) {
            SourceSet::All => (n, None),
            SourceSet::Nodes(sources) => {
                for &s in &sources {
                    assert!(s < n, "source {s} out of range for n = {n}");
                }
                (sources.len(), Some(BitSet::from_indices(n, sources)))
            }
        };
        // R(0) is the identity: every token is disseminated iff n == 1.
        PrefixEngine {
            provider,
            progress: WorkloadProgress {
                n,
                round: 0,
                tokens,
                disseminated: if n == 1 { tokens } else { 0 },
            },
            sources,
            any_disseminated: n == 1,
        }
    }
}

impl<P: PrefixProvider + ?Sized> RoundEngine for PrefixEngine<'_, P> {
    type State = BoolMatrix;

    fn step(&mut self, faults: &RoundFaults) -> Option<(&RootedTree, &BoolMatrix)> {
        assert!(faults.is_quiet(), "prefix products are fault-free");
        let prefix = self.provider.next_prefix()?;
        self.progress.round = prefix.round;
        self.progress.disseminated = match &self.sources {
            None => prefix.disseminated.len(),
            Some(bits) => prefix.disseminated.intersection_len(bits),
        };
        self.any_disseminated = !prefix.disseminated.is_empty();
        Some((prefix.tree, prefix.heard))
    }

    fn progress(&self) -> WorkloadProgress {
        self.progress
    }

    fn any_disseminated(&self, _progress: &WorkloadProgress) -> bool {
        self.any_disseminated
    }

    fn source_name(&self) -> String {
        self.provider.name()
    }
}

/// Runs `workload` off `provider`'s prefix products until completion,
/// `config.max_rounds`, or provider exhaustion — [`drive`] on the
/// [`PrefixEngine`].
///
/// The report equals a [`crate::run_workload`] run of the same schedule
/// (`tests/prefix_differential.rs` pins this), at one shared product step
/// per round. `fault_log` is empty.
///
/// # Examples
///
/// ```
/// use treecast_core::prefix::{run_workload_prefixes, ComposedPrefixes};
/// use treecast_core::{Broadcast, SimulationConfig};
/// use treecast_trees::generators;
///
/// let n = 12;
/// let mut prefixes = ComposedPrefixes::new(vec![generators::path(n)]);
/// let report = run_workload_prefixes(&mut prefixes, &Broadcast, SimulationConfig::for_n(n));
/// assert_eq!(report.completion_time, Some((n as u64) - 1));
/// ```
///
/// # Panics
///
/// Panics if `provider.n() == 0` or a workload source is out of range.
pub fn run_workload_prefixes<P, W>(
    provider: &mut P,
    workload: &W,
    config: SimulationConfig,
) -> WorkloadReport
where
    P: PrefixProvider + ?Sized,
    W: Workload + ?Sized,
{
    let mut engine = PrefixEngine::new(provider, workload);
    drive(&mut engine, workload, &mut NoFaults, config, false, &mut ())
}

/// The naive gossip reduction: for every source `x` and horizon `t`,
/// recompose `R(t)` from scratch and test row `x` — `O(sources ×
/// horizons)` compositions. A differential and microbench reference only.
pub fn gossip_time_naive_per_source(trees: &[RootedTree], max_rounds: u64) -> Option<u64> {
    assert!(!trees.is_empty(), "need at least one tree");
    let n = trees[0].n();
    let reversed: Vec<BoolMatrix> = trees
        .iter()
        .map(|t| t.to_matrix(true).transpose())
        .collect();
    if n == 1 {
        return Some(0);
    }
    let eff = |t: usize| &reversed[t.min(reversed.len() - 1)];
    let mut max_source_time = 0u64;
    let mut product = BoolMatrix::zeros(n);
    let mut scratch = BoolMatrix::zeros(n);
    for x in 0..n {
        let mut sx = None;
        'horizon: for t in 1..=max_rounds {
            // The from-scratch replay this function exists to exhibit.
            product.clone_from(&BoolMatrix::identity(n));
            for s in (0..t as usize).rev() {
                eff(s).compose_into(&product, &mut scratch);
                std::mem::swap(&mut product, &mut scratch);
            }
            if product.row(x).is_full() {
                sx = Some(t);
                break 'horizon;
            }
        }
        max_source_time = max_source_time.max(sx?);
    }
    Some(max_source_time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SequenceSource, StaticSource};
    use crate::workload::{
        run_workload, Broadcast, Gossip, KBroadcast, KSourceBroadcast, WorkloadOutcome,
    };
    use treecast_trees::generators;

    fn rotating_stars(n: usize) -> Vec<RootedTree> {
        (0..n).map(|c| generators::star_with_center(n, c)).collect()
    }

    #[test]
    fn prefix_run_matches_engine_on_the_static_path() {
        for n in 2..10usize {
            let cfg = SimulationConfig::for_n(n);
            let mut engine = StaticSource::new(generators::path(n));
            let want = run_workload(n, &mut engine, &Broadcast, cfg);
            let mut prefixes =
                ComposedPrefixes::new(vec![generators::path(n)]).with_label(want.source.clone());
            let got = run_workload_prefixes(&mut prefixes, &Broadcast, cfg);
            assert_eq!(got.completion_time, want.completion_time, "n = {n}");
            assert_eq!(got.broadcast_time, want.broadcast_time, "n = {n}");
            assert_eq!(got.rounds, want.rounds, "n = {n}");
            assert_eq!(got.disseminated, want.disseminated, "n = {n}");
        }
    }

    #[test]
    fn gossip_and_k_broadcast_share_one_composition_per_round() {
        // The whole lattice over one rotating-star schedule: every
        // workload reads its completion off the same mask stream.
        let n = 6;
        let cfg = SimulationConfig::for_n(n);
        for k in 1..=n {
            let mut engine = SequenceSource::new(rotating_stars(n));
            let want = run_workload(n, &mut engine, &KBroadcast::new(k), cfg);
            let mut prefixes = ComposedPrefixes::new(rotating_stars(n));
            let got = run_workload_prefixes(&mut prefixes, &KBroadcast::new(k), cfg);
            assert_eq!(got.completion_time, want.completion_time, "k = {k}");
        }
        let mut engine = SequenceSource::new(rotating_stars(n));
        let want = run_workload(n, &mut engine, &Gossip, cfg);
        let mut prefixes = ComposedPrefixes::new(rotating_stars(n));
        let got = run_workload_prefixes(&mut prefixes, &Gossip, cfg);
        assert_eq!(got.completion_time, want.completion_time);
        assert_eq!(got.rounds, want.rounds);
    }

    #[test]
    fn tracked_sources_count_only_their_tokens() {
        let n = 6;
        let cfg = SimulationConfig::for_n(n);
        let workload = KSourceBroadcast::evenly_spread(n, 3);
        let mut engine = SequenceSource::new(rotating_stars(n));
        let want = run_workload(n, &mut engine, &workload, cfg);
        let mut prefixes = ComposedPrefixes::new(rotating_stars(n));
        let got = run_workload_prefixes(&mut prefixes, &workload, cfg);
        assert_eq!(got.completion_time, want.completion_time);
        assert_eq!(got.disseminated, want.disseminated);
        assert_eq!(got.tokens, 3);
    }

    #[test]
    fn shared_reduction_matches_the_naive_per_source_one() {
        let n = 5;
        let trees = rotating_stars(n);
        let cap = SimulationConfig::for_n(n).max_rounds;
        let naive = gossip_time_naive_per_source(&trees, cap);
        let mut prefixes = ComposedPrefixes::new(trees);
        let shared = run_workload_prefixes(&mut prefixes, &Gossip, SimulationConfig::for_n(n));
        assert_eq!(shared.completion_time, naive);
    }

    #[test]
    fn divergent_schedules_hit_the_round_cap() {
        // The static path never completes k ≥ 2; the prefix runner must
        // report the cap exactly like the engine.
        let n = 5;
        let cfg = SimulationConfig::for_n(n).with_max_rounds(40);
        let mut prefixes = ComposedPrefixes::new(vec![generators::path(n)]);
        let got = run_workload_prefixes(&mut prefixes, &KBroadcast::new(2), cfg);
        assert_eq!(got.outcome, WorkloadOutcome::RoundLimit);
        assert_eq!(got.rounds, 40);
        assert_eq!(got.disseminated, 1);
        assert_eq!(got.broadcast_time, Some((n - 1) as u64));
        assert_eq!(
            gossip_time_naive_per_source(&[generators::path(n)], 40),
            None
        );
    }

    #[test]
    fn single_node_completes_at_round_zero() {
        let mut prefixes = ComposedPrefixes::new(vec![generators::star(1)]);
        let got = run_workload_prefixes(&mut prefixes, &Gossip, SimulationConfig::for_n(1));
        assert_eq!(got.completion_time, Some(0));
        assert_eq!(got.rounds, 0);
        assert_eq!(got.disseminated, 1);
    }

    #[test]
    fn disseminated_mask_is_the_and_of_rows() {
        let n = 4;
        let mut m = BoolMatrix::ones(n);
        m.set(2, 1, false);
        let mut mask = BitSet::new(n);
        disseminated_mask(&m, &mut mask);
        assert_eq!(mask.iter().collect::<Vec<_>>(), vec![0, 2, 3]);
    }

    #[test]
    fn provider_label_defaults_to_sequence_semantics() {
        let p = ComposedPrefixes::new(vec![generators::path(3), generators::star(3)]);
        assert_eq!(p.name(), "sequence(len=2)");
        assert_eq!(p.trees().len(), 2);
    }
}
