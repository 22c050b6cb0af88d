//! The emulation's replica cell: [`EmulationSpec`] implements
//! [`ReplicaSource`], so `treecast-montecarlo`'s estimators, sweeps and
//! critical-value readout apply to gossip emulations verbatim, and
//! [`EmuSweepDim`] makes bandwidth, fan-out and loss sweep dimensions.
//!
//! Replica `r` derives its fault seed as [`replica_seed`]`(base, r)` and
//! its tree seed as [`splitmix64`]`(seed ⊕ `[`TREE_STREAM_TWEAK`]`)`, the
//! synchronous `RunSpec`'s chain and default base seed, so emulated and
//! synchronous replicas see the same trees and faults.

use treecast_core::replica::{
    default_budget, replica_seed, splitmix64, FaultSpec, ReplicaOutcome, ReplicaSource, TreeSpec,
    TREE_STREAM_TWEAK,
};
use treecast_core::{KSourceBroadcast, SimulationConfig, Workload, WorkloadReport};

use crate::protocol::GossipKnobs;
use crate::runner::run_emulation;

/// One emulation cell: R replicas of an (n, k, trees, faults, knobs)
/// configuration with a shared round budget — the gossip twin of the
/// Monte Carlo layer's `RunSpec`, plus the protocol knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmulationSpec {
    /// Network size (= simulated peer count).
    pub n: usize,
    /// Tracked sources: the workload is `KSourceBroadcast` over `k`
    /// evenly spread tokens (`k = 1` is plain broadcast; `k = n` the
    /// tracked equivalent of gossip).
    pub k: usize,
    /// Tree source driving the per-round connectivity.
    pub trees: TreeSpec,
    /// Randomized fault mix.
    pub faults: FaultSpec,
    /// Protocol knobs (bandwidth, fan-out, batch).
    pub knobs: GossipKnobs,
    /// Round budget per replica; replicas still incomplete at the
    /// budget are *censored*, not averaged.
    pub round_budget: u64,
    /// Number of independent replicas.
    pub replicas: usize,
    /// Base seed; replica `r` derives `splitmix64(base ⊕ (r+1))`.
    pub base_seed: u64,
}

impl EmulationSpec {
    /// A cell with the replica layer's defaults: budget from
    /// [`default_budget`], 64 replicas, and the synchronous `RunSpec`'s
    /// base seed (which stream-pairs the two).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `k` is not in `1..=n`.
    #[must_use]
    pub fn new(n: usize, k: usize, trees: TreeSpec, faults: FaultSpec, knobs: GossipKnobs) -> Self {
        assert!(n >= 1, "n must be positive");
        assert!(k >= 1 && k <= n, "k = {k} must be in 1..={n}");
        EmulationSpec {
            n,
            k,
            trees,
            faults,
            knobs,
            round_budget: default_budget(n, trees),
            replicas: 64,
            base_seed: 0xE14_5EED,
        }
    }

    /// Overrides the replica count.
    #[must_use]
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas;
        self
    }

    /// Overrides the round budget (the censoring horizon).
    #[must_use]
    pub fn with_budget(mut self, round_budget: u64) -> Self {
        self.round_budget = round_budget;
        self
    }

    /// Overrides the base seed.
    #[must_use]
    pub fn with_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// The workload label (`k-source-broadcast(k=…)`).
    #[must_use]
    pub fn workload_label(&self) -> String {
        Workload::name(&KSourceBroadcast::evenly_spread(self.n, self.k))
    }

    /// Runs replica `index` to its full [`WorkloadReport`] — the
    /// fault-logged, replayable form behind [`ReplicaSource::run_replica`].
    ///
    /// # Panics
    ///
    /// Panics on an invalid spec — same contract as
    /// [`crate::run_emulation`].
    #[must_use]
    pub fn run_one(&self, index: usize) -> WorkloadReport {
        let seed = replica_seed(self.base_seed, index);
        let workload = KSourceBroadcast::evenly_spread(self.n, self.k);
        let mut faults = self.faults.model(seed);
        let config = SimulationConfig::for_n(self.n).with_max_rounds(self.round_budget);
        let tree_seed = splitmix64(seed ^ TREE_STREAM_TWEAK);
        // The dense twin draws the identical tree stream the synchronous
        // replicas see for this seed.
        let mut source = self
            .trees
            .source(self.n, tree_seed)
            .dense_twin(self.round_budget);
        run_emulation(
            self.n,
            &mut source,
            &workload,
            &self.knobs,
            &mut faults,
            config,
        )
    }
}

impl ReplicaSource for EmulationSpec {
    fn n(&self) -> usize {
        self.n
    }

    fn k(&self) -> usize {
        self.k
    }

    fn replicas(&self) -> usize {
        self.replicas
    }

    fn round_budget(&self) -> u64 {
        self.round_budget
    }

    fn workload_label(&self) -> String {
        EmulationSpec::workload_label(self)
    }

    fn source_label(&self) -> String {
        if self.knobs.is_unconstrained() {
            format!("emulated({})", self.trees.label())
        } else {
            format!("emulated({}, {})", self.trees.label(), self.knobs.label())
        }
    }

    fn fault_label(&self) -> String {
        self.faults.label()
    }

    fn run_replica(&self, index: usize) -> ReplicaOutcome {
        ReplicaOutcome {
            rounds: self.run_one(index).completion_time,
        }
    }
}

/// The scenario dimensions an emulation sweep varies — two protocol
/// knobs plus the per-mille loss rate, all through one grid interface.
/// Feed [`EmuSweepDim::cell`] to `treecast_montecarlo::sweep_cells` and
/// the critical-value readout applies unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmuSweepDim {
    /// [`GossipKnobs::bandwidth`]; grid value `0` = unconstrained.
    BandwidthCap,
    /// [`GossipKnobs::fanout`]; grid value `0` = unconstrained.
    AdvertFanout,
    /// Token-loss probability, per-mille (the fault dimension that pairs
    /// emulated sweeps with the Monte Carlo layer's critical sweeps).
    LossPermille,
}

impl EmuSweepDim {
    /// Column label for tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EmuSweepDim::BandwidthCap => "bandwidth cap",
            EmuSweepDim::AdvertFanout => "advert fan-out",
            EmuSweepDim::LossPermille => "loss ‰",
        }
    }

    /// `base` with this dimension set to `value` (every other field
    /// shared) — the cell constructor a sweep grid maps over.
    #[must_use]
    pub fn cell(self, base: &EmulationSpec, value: u64) -> EmulationSpec {
        let cap = |v: u64| (v > 0).then_some(v as u32);
        let mut spec = base.clone();
        match self {
            EmuSweepDim::BandwidthCap => spec.knobs.bandwidth = cap(value),
            EmuSweepDim::AdvertFanout => spec.knobs.fanout = cap(value),
            EmuSweepDim::LossPermille => spec.faults = FaultSpec::loss_permille(value as u32),
        }
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_cell(n: usize) -> EmulationSpec {
        EmulationSpec::new(
            n,
            1,
            TreeSpec::Path,
            FaultSpec::none(),
            GossipKnobs::unconstrained(),
        )
    }

    #[test]
    fn replicas_are_deterministic_per_index() {
        let spec = EmulationSpec::new(
            12,
            2,
            TreeSpec::SeededUniform,
            FaultSpec::loss_permille(150),
            GossipKnobs::unconstrained().with_bandwidth(3),
        )
        .with_replicas(4);
        for index in 0..4 {
            assert_eq!(spec.run_one(index), spec.run_one(index), "index {index}");
        }
        assert_ne!(
            spec.run_one(0).fault_log,
            spec.run_one(1).fault_log,
            "replicas draw independent fault streams"
        );
    }

    #[test]
    fn quiet_unconstrained_cells_complete_at_the_model_time() {
        let spec = quiet_cell(16).with_replicas(3);
        for index in 0..3 {
            assert_eq!(spec.run_replica(index).rounds, Some(15), "index {index}");
        }
    }

    #[test]
    fn labels_expose_trees_and_knobs() {
        let free = quiet_cell(8);
        assert_eq!(ReplicaSource::source_label(&free), "emulated(static(path))");
        assert_eq!(
            ReplicaSource::workload_label(&free),
            "k-source-broadcast(k=1)"
        );
        assert_eq!(ReplicaSource::fault_label(&free), "no-faults");
        let capped = EmulationSpec {
            knobs: GossipKnobs::unconstrained().with_bandwidth(2),
            ..free
        };
        assert_eq!(
            ReplicaSource::source_label(&capped),
            "emulated(static(path), bw=2)"
        );
    }

    #[test]
    fn sweep_dims_map_onto_knobs_and_faults() {
        let base = quiet_cell(8);
        assert_eq!(
            EmuSweepDim::BandwidthCap.cell(&base, 4).knobs.bandwidth,
            Some(4)
        );
        assert_eq!(
            EmuSweepDim::BandwidthCap.cell(&base, 0).knobs.bandwidth,
            None,
            "0 = unconstrained"
        );
        assert_eq!(
            EmuSweepDim::AdvertFanout.cell(&base, 2).knobs.fanout,
            Some(2)
        );
        assert_eq!(
            EmuSweepDim::LossPermille.cell(&base, 5).faults,
            FaultSpec::loss_permille(5)
        );
        assert_eq!(EmuSweepDim::LossPermille.label(), "loss ‰");
    }

    #[test]
    fn censored_replicas_report_no_rounds() {
        // Fanout 0 starves the protocol: every replica censors.
        let spec = EmulationSpec {
            knobs: GossipKnobs::unconstrained().with_fanout(0),
            ..quiet_cell(6)
        }
        .with_budget(12)
        .with_replicas(2);
        for index in 0..2 {
            assert_eq!(spec.run_replica(index).rounds, None);
        }
    }

    #[test]
    fn default_seed_matches_the_synchronous_replica_layer() {
        // The stream-pairing contract: same default base seed as
        // RunSpec::new (checked against the documented constant, since
        // montecarlo is not a dependency of this crate).
        assert_eq!(quiet_cell(4).base_seed, 0xE14_5EED);
    }
}
