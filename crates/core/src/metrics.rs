//! Matrix-evolution instrumentation.
//!
//! Section 3 of the paper: *"Our analysis is enabled by a novel perspective
//! on the problem: adjacency matrices with boolean entries. We analyse how
//! these adjacency matrices evolve over rounds."* This module turns that
//! perspective into observable data: a [`MetricsRecorder`] probe samples
//! the quantities the proof tracks (row weights, fresh edges, duplicate
//! rows) and renders them as CSV for experiment E8.

use treecast_bitmatrix::BoolMatrix;
use treecast_trees::RootedTree;

use crate::drive::Probe;
use crate::model::BroadcastState;
use crate::scenario::RoundFaults;

/// One sampled round of matrix-evolution statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RoundMetrics {
    /// Round index `t` (1-based; the state is `G(t)`).
    pub round: u64,
    /// Total edges of `G(t)`.
    pub edge_count: usize,
    /// Edges gained this round (vs the previous *sampled* round when
    /// sampling sparsely; with `every = 1` this is the per-round gain —
    /// the strict-progress quantity of Section 2).
    pub new_edges: usize,
    /// Smallest reach-set size (min row weight of `G(t)`).
    pub min_reach: usize,
    /// Largest reach-set size (max row weight).
    pub max_reach: usize,
    /// Smallest heard-from-set size (min column weight).
    pub min_heard: usize,
    /// Largest heard-from-set size (max column weight).
    pub max_heard: usize,
    /// Number of pairwise-distinct rows of `G(t)` — the duplication
    /// structure at the heart of the paper's analysis.
    pub distinct_rows: usize,
    /// Nodes whose reach set is already full (broadcast witnesses so far).
    pub full_rows: usize,
    /// Number of leaves of the round's tree.
    pub tree_leaves: usize,
    /// Height of the round's tree.
    pub tree_height: usize,
}

/// A dense-engine [`Probe`] that samples [`RoundMetrics`] every `every`
/// rounds.
///
/// # Examples
///
/// ```
/// use treecast_core::{
///     drive, Broadcast, DenseEngine, MetricsRecorder, NoFaults, SimulationConfig, StaticSource,
/// };
/// use treecast_trees::generators;
///
/// let n = 8;
/// let mut metrics = MetricsRecorder::every_round();
/// let mut source = StaticSource::new(generators::path(n));
/// let mut engine = DenseEngine::new(n, &mut source, &Broadcast);
/// let cfg = SimulationConfig::for_n(n);
/// drive(&mut engine, &Broadcast, &mut NoFaults, cfg, false, &mut metrics);
/// let trace = metrics.trace();
/// assert_eq!(trace.len(), (n - 1) as usize);
/// // Strict progress: every round added at least one edge.
/// assert!(trace.iter().all(|m| m.new_edges >= 1));
/// ```
#[derive(Debug, Clone)]
pub struct MetricsRecorder {
    every: u64,
    last_edges: usize,
    trace: Vec<RoundMetrics>,
}

impl MetricsRecorder {
    /// Samples every round. O(n²) work per round — fine for `n` in the
    /// hundreds, use [`MetricsRecorder::sampled`] beyond that.
    pub fn every_round() -> Self {
        Self::sampled(1)
    }

    /// Samples every `every`-th round.
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    pub fn sampled(every: u64) -> Self {
        assert!(every > 0, "sampling interval must be positive");
        MetricsRecorder {
            every,
            last_edges: 0,
            trace: Vec::new(),
        }
    }

    /// The collected trace.
    pub fn trace(&self) -> &[RoundMetrics] {
        &self.trace
    }

    /// Renders the trace as CSV (with header), ready for plotting.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "round,edge_count,new_edges,min_reach,max_reach,min_heard,max_heard,distinct_rows,full_rows,tree_leaves,tree_height\n",
        );
        for m in &self.trace {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{}\n",
                m.round,
                m.edge_count,
                m.new_edges,
                m.min_reach,
                m.max_reach,
                m.min_heard,
                m.max_heard,
                m.distinct_rows,
                m.full_rows,
                m.tree_leaves,
                m.tree_height,
            ));
        }
        out
    }

    fn sample(&mut self, tree: &RootedTree, state: &BroadcastState) {
        let product: BoolMatrix = state.product_matrix();
        let reach = product.row_weights();
        let heard = state.heard_weights();
        let edge_count = state.edge_count();
        let n = state.n();
        let metrics = RoundMetrics {
            round: state.round(),
            edge_count,
            new_edges: edge_count - self.last_edges,
            min_reach: reach.iter().copied().min().unwrap_or(0),
            max_reach: reach.iter().copied().max().unwrap_or(0),
            min_heard: heard.iter().copied().min().unwrap_or(0),
            max_heard: heard.iter().copied().max().unwrap_or(0),
            distinct_rows: product.distinct_row_count(),
            full_rows: reach.iter().filter(|&&w| w == n).count(),
            tree_leaves: tree.leaf_count(),
            tree_height: tree.height(),
        };
        self.last_edges = edge_count;
        self.trace.push(metrics);
    }
}

impl Default for MetricsRecorder {
    fn default() -> Self {
        Self::every_round()
    }
}

impl Probe<BroadcastState> for MetricsRecorder {
    fn on_round(&mut self, _faults: &RoundFaults, tree: &RootedTree, state: &BroadcastState) {
        if self.trace.is_empty() {
            // First sighting: baseline is the identity state's n edges.
            self.last_edges = state.n();
        }
        if state.round() % self.every == 0 {
            self.sample(tree, state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::{drive, DenseEngine};
    use crate::engine::{SimulationConfig, StaticSource};
    use crate::scenario::NoFaults;
    use crate::workload::Broadcast;
    use treecast_trees::generators;

    /// Broadcasts `tree` statically on `n` nodes with `rec` attached.
    fn record(n: usize, tree: RootedTree, rec: &mut MetricsRecorder) {
        let mut src = StaticSource::new(tree);
        let mut engine = DenseEngine::new(n, &mut src, &Broadcast);
        let cfg = SimulationConfig::for_n(n);
        drive(&mut engine, &Broadcast, &mut NoFaults, cfg, false, rec);
    }

    #[test]
    fn path_trace_shape() {
        let n = 6;
        let mut rec = MetricsRecorder::every_round();
        record(n, generators::path(n), &mut rec);
        let trace = rec.trace();
        assert_eq!(trace.len(), 5);
        // Edge counts strictly increase.
        for w in trace.windows(2) {
            assert!(w[1].edge_count > w[0].edge_count);
        }
        // The path tree has one leaf and height n−1 every round.
        assert!(trace.iter().all(|m| m.tree_leaves == 1));
        assert!(trace.iter().all(|m| m.tree_height == n - 1));
        // Final round: the root has a full row.
        assert_eq!(trace.last().unwrap().full_rows, 1);
    }

    #[test]
    fn new_edges_accounting_starts_from_identity() {
        let n = 5;
        let mut rec = MetricsRecorder::every_round();
        record(n, generators::star(n), &mut rec);
        let trace = rec.trace();
        assert_eq!(trace.len(), 1);
        // Star round 1: n−1 fresh edges from the center.
        assert_eq!(trace[0].new_edges, n - 1);
        assert_eq!(trace[0].edge_count, 2 * n - 1);
    }

    #[test]
    fn sampled_recorder_skips() {
        let n = 9;
        let mut rec = MetricsRecorder::sampled(3);
        record(n, generators::path(n), &mut rec);
        let rounds: Vec<u64> = rec.trace().iter().map(|m| m.round).collect();
        assert_eq!(rounds, vec![3, 6]);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let n = 4;
        let mut rec = MetricsRecorder::every_round();
        record(n, generators::path(n), &mut rec);
        let csv = rec.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + 3);
        assert!(lines[0].starts_with("round,edge_count"));
    }

    #[test]
    #[should_panic(expected = "sampling interval")]
    fn zero_interval_rejected() {
        MetricsRecorder::sampled(0);
    }
}
