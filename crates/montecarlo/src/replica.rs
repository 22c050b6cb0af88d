//! Seeded replica execution: one [`RunSpec`] describes a (workload ×
//! fault model × tree source × engine) cell, [`run_replicas`] fans R
//! independent replicas out over a `std::thread::scope` worker pool, and
//! [`estimate`] folds the outcomes into a censoring-aware
//! [`MonteCarloEstimate`].
//!
//! # Determinism contract
//!
//! Replica `r` of a spec with base seed `s` always runs with the derived
//! seed `splitmix64(s ⊕ (r+1))` — no global RNG, no thread-local state.
//! The worker pool writes each replica's outcome into its own
//! preassigned slot of the result vector (contiguous chunks, one per
//! worker), so the merged outcome sequence is the replica-index order
//! regardless of thread count or scheduling. The estimators then consume
//! that sequence serially. Every statistic is therefore bit-identical
//! for 1, 2, 4 or 8 workers — `crates/bench/tests/determinism.rs` tests
//! exactly this property.
//!
//! # Engine selection
//!
//! Cells with `n ≤` [`DENSE_MAX_N`] run on the dense engine
//! ([`run_workload_faulty`]); larger cells run on the frontier-sparse
//! engine ([`run_workload_frontier_faulty`]). The two are proven
//! round-for-round identical (`tests/frontier_differential.rs`), so the
//! switch is invisible in the statistics — a property
//! `crates/montecarlo/tests/differential.rs` re-checks through this
//! layer.

use treecast_core::frontier::run_workload_frontier_faulty;
use treecast_core::scenario::run_workload_faulty;
use treecast_core::{KSourceBroadcast, SimulationConfig, Workload};

// The cell vocabulary and the replica-source contract live in
// `treecast_core::replica` (shared with `treecast-emulation`); this
// crate re-exports them so `treecast_montecarlo::{TreeSpec, FaultSpec,
// …}` keep working unchanged.
pub use treecast_core::replica::{
    default_budget, replica_seed, splitmix64, FaultSpec, ReplicaOutcome, ReplicaSource, TreeSpec,
    TREE_STREAM_TWEAK,
};

use crate::estimator::RoundStats;

/// Largest `n` the dense (bit-matrix state) engine serves; above this
/// every replica runs on the frontier-sparse engine.
pub const DENSE_MAX_N: usize = 1024;

/// One Monte Carlo cell: R replicas of a (workload × faults × trees)
/// configuration with a shared round budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSpec {
    /// Network size.
    pub n: usize,
    /// Tracked sources: the workload is `KSourceBroadcast` over `k`
    /// evenly spread tokens (`k = 1` is plain broadcast; `k = n` is the
    /// tracked equivalent of gossip).
    pub k: usize,
    /// Tree source.
    pub trees: TreeSpec,
    /// Randomized fault mix.
    pub faults: FaultSpec,
    /// Round budget per replica; replicas still incomplete at the
    /// budget are *censored*, not averaged.
    pub round_budget: u64,
    /// Number of independent replicas.
    pub replicas: usize,
    /// Base seed; replica `r` derives `splitmix64(base ⊕ (r+1))`.
    pub base_seed: u64,
}

impl RunSpec {
    /// A cell with sensible defaults: budget scaled to the source's
    /// fault-free completion regime (see [`default_budget`]), 64
    /// replicas, a fixed base seed.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `k` is not in `1..=n`.
    #[must_use]
    pub fn new(n: usize, k: usize, trees: TreeSpec, faults: FaultSpec) -> Self {
        assert!(n >= 1, "n must be positive");
        assert!(k >= 1 && k <= n, "k = {k} must be in 1..={n}");
        RunSpec {
            n,
            k,
            trees,
            faults,
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

    /// `true` when this cell runs on the frontier-sparse engine.
    #[must_use]
    pub fn uses_frontier(&self) -> bool {
        self.n > DENSE_MAX_N
    }

    /// The workload label (`k-source-broadcast(k=…)`).
    #[must_use]
    pub fn workload_label(&self) -> String {
        Workload::name(&KSourceBroadcast::evenly_spread(self.n, self.k))
    }
}

/// [`RunSpec`] is the synchronous-engine [`ReplicaSource`]: the generic
/// pool and estimator entry points ([`run_replicas_from`],
/// [`estimate_from`]) accept it interchangeably with the emulation
/// layer's spec.
impl ReplicaSource for RunSpec {
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
        RunSpec::workload_label(self)
    }

    fn source_label(&self) -> String {
        self.trees.label().to_string()
    }

    fn fault_label(&self) -> String {
        self.faults.label()
    }

    fn run_replica(&self, index: usize) -> ReplicaOutcome {
        run_replica(self, index)
    }
}

/// Runs one replica of `spec` (replica `index`), on the engine the
/// spec's size selects.
///
/// # Panics
///
/// Panics on an invalid spec (`n == 0`, `k` out of range) — the same
/// contract as the underlying runners.
#[must_use]
pub fn run_replica(spec: &RunSpec, index: usize) -> ReplicaOutcome {
    run_replica_on(spec, index, spec.uses_frontier())
}

/// [`run_replica`] with the engine choice forced: `frontier = false`
/// runs the dense engine, `true` the frontier-sparse one, regardless of
/// `n`. The two engines are proven round-for-round identical, so this
/// only exists for the differential tests that re-prove it through the
/// Monte Carlo layer (and it lets those tests stay at small n).
///
/// # Panics
///
/// Panics on an invalid spec (`n == 0`, `k` out of range) — the same
/// contract as the underlying runners.
#[must_use]
pub fn run_replica_on(spec: &RunSpec, index: usize, frontier: bool) -> ReplicaOutcome {
    let seed = replica_seed(spec.base_seed, index);
    let workload = KSourceBroadcast::evenly_spread(spec.n, spec.k);
    let mut faults = spec.faults.model(seed);
    let config = SimulationConfig::for_n(spec.n).with_max_rounds(spec.round_budget);
    // An independent tree-stream seed: decorrelated from the fault
    // stream by a fixed tweak.
    let tree_seed = splitmix64(seed ^ TREE_STREAM_TWEAK);
    let mut source = spec.trees.source(spec.n, tree_seed);
    let report = if frontier {
        run_workload_frontier_faulty(spec.n, &mut source, &workload, &mut faults, config)
    } else {
        // The dense twin draws the identical tree stream, so dense and
        // frontier replicas of the same seed see the same trees.
        let mut source = source.dense_twin(spec.round_budget);
        run_workload_faulty(spec.n, source.as_mut(), &workload, &mut faults, config)
    };
    ReplicaOutcome {
        rounds: report.completion_time,
    }
}

/// Runs all replicas of `spec` on `threads` workers and returns the
/// outcomes in replica-index order (the determinism contract — see the
/// module docs).
#[must_use]
pub fn run_replicas(spec: &RunSpec, threads: usize) -> Vec<ReplicaOutcome> {
    run_replicas_from(spec, threads)
}

/// The generic worker pool behind [`run_replicas`]: fans any
/// [`ReplicaSource`]'s replicas out over `threads` workers, each writing
/// into its own preassigned contiguous chunk of the result vector, so
/// the merged outcome sequence is the replica-index order regardless of
/// thread count or scheduling. This is the single pool both the
/// synchronous [`RunSpec`] cells and the emulation layer's cells run on.
#[must_use]
pub fn run_replicas_from<S: ReplicaSource + ?Sized>(
    source: &S,
    threads: usize,
) -> Vec<ReplicaOutcome> {
    let total = source.replicas();
    let mut out = vec![ReplicaOutcome::default(); total];
    if total == 0 {
        return out;
    }
    let threads = threads.max(1).min(total);
    if threads == 1 {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = source.run_replica(i);
        }
        return out;
    }
    let chunk = total.div_ceil(threads);
    std::thread::scope(|scope| {
        for (worker, slots) in out.chunks_mut(chunk).enumerate() {
            let start = worker * chunk;
            scope.spawn(move || {
                for (offset, slot) in slots.iter_mut().enumerate() {
                    *slot = source.run_replica(start + offset);
                }
            });
        }
    });
    out
}

/// The full estimate of one cell: the spec echo, the censoring-aware
/// round statistics, and derived labels — everything a sweep row needs.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloEstimate {
    /// Network size.
    pub n: usize,
    /// Tracked token count.
    pub k: usize,
    /// Workload label.
    pub workload: String,
    /// Tree-source label.
    pub source: String,
    /// Fault-mix label.
    pub faults: String,
    /// Round budget (censoring horizon).
    pub round_budget: u64,
    /// The aggregated statistics.
    pub stats: RoundStats,
}

impl MonteCarloEstimate {
    /// `true` when a majority of replicas were censored — the cell's
    /// operational definition of a *stall* (mirroring the proven k ≥ 2
    /// divergence: expected rounds are unbounded past the transition).
    #[must_use]
    pub fn stalled(&self) -> bool {
        2 * self.stats.censored() > self.stats.replicas()
    }
}

/// Runs `spec` on `threads` workers and folds the outcomes (in replica
/// order) into a [`MonteCarloEstimate`]. Bit-identical for every thread
/// count.
///
/// # Panics
///
/// Panics on an invalid spec — same contract as [`run_replica`].
#[must_use]
pub fn estimate(spec: &RunSpec, threads: usize) -> MonteCarloEstimate {
    estimate_from(spec, threads)
}

/// [`estimate`] generalized over any [`ReplicaSource`]: the estimators,
/// sweeps and critical-value readout apply verbatim to whatever can run
/// replicas — the synchronous engines through [`RunSpec`], or the
/// asynchronous gossip emulation through its spec.
#[must_use]
pub fn estimate_from<S: ReplicaSource + ?Sized>(source: &S, threads: usize) -> MonteCarloEstimate {
    let outcomes = run_replicas_from(source, threads);
    let mut stats = RoundStats::new();
    for outcome in &outcomes {
        match outcome.rounds {
            Some(rounds) => stats.push_completed(rounds),
            None => stats.push_censored(),
        }
    }
    MonteCarloEstimate {
        n: source.n(),
        k: source.k(),
        workload: source.workload_label(),
        source: source.source_label(),
        faults: source.fault_label(),
        round_budget: source.round_budget(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_replicas_all_agree() {
        let spec = RunSpec::new(16, 1, TreeSpec::Path, FaultSpec::none()).with_replicas(6);
        let outcomes = run_replicas(&spec, 1);
        assert!(
            outcomes.iter().all(|o| o.rounds == Some(15)),
            "{outcomes:?}"
        );
    }

    #[test]
    fn thread_counts_agree_bit_for_bit() {
        let spec = RunSpec::new(24, 2, TreeSpec::SeededUniform, FaultSpec::loss(25))
            .with_replicas(16)
            .with_seed(42);
        let reference = estimate(&spec, 1);
        for threads in [2, 3, 4, 8] {
            assert_eq!(estimate(&spec, threads), reference, "threads = {threads}");
        }
    }

    #[test]
    fn certain_loss_censors_everything() {
        // 100% loss wipes every node every round: no foreign token ever
        // survives, so no replica can complete and all are censored.
        let spec = RunSpec::new(8, 2, TreeSpec::Path, FaultSpec::loss(100))
            .with_replicas(5)
            .with_budget(40);
        let est = estimate(&spec, 2);
        assert_eq!(est.stats.censored(), 5);
        assert_eq!(est.stats.completed(), 0);
        assert!(est.stalled());
    }

    #[test]
    fn labels_round_trip_the_configuration() {
        let spec = RunSpec::new(32, 4, TreeSpec::SeededUniform, FaultSpec::loss(10));
        assert_eq!(spec.workload_label(), "k-source-broadcast(k=4)");
        assert_eq!(spec.trees.label(), "seeded-uniform");
        assert_eq!(FaultSpec::none().label(), "no-faults");
        assert_eq!(FaultSpec::loss(10).label(), "loss=10%");
        assert_eq!(FaultSpec::dropout(5, 2).label(), "drop=5%x2");
        assert_eq!(FaultSpec::rotation(3).label(), "rotate=3");
    }

    #[test]
    fn generic_and_specific_pools_agree() {
        // `run_replicas` is a thin wrapper over the generic pool; the
        // trait path must produce the identical outcome sequence.
        let spec = RunSpec::new(
            18,
            2,
            TreeSpec::SeededUniform,
            FaultSpec::loss_permille(150),
        )
        .with_replicas(10)
        .with_seed(3);
        assert_eq!(run_replicas(&spec, 2), run_replicas_from(&spec, 4));
        assert_eq!(estimate(&spec, 1), estimate_from(&spec, 8));
    }
}
