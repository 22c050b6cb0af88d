//! The broadcast-in-dynamic-rooted-trees model of El-Hayek, Henzinger &
//! Schmid (PODC 2022), executable.
//!
//! The paper studies `n` processes that communicate in synchronous rounds;
//! each round an adversary picks an arbitrary rooted tree (self-loops
//! added), and the **broadcast time** `t*` is the first round at which some
//! process has reached every other process through the product graph
//! `G(t) = G₁ ∘ … ∘ G_t`. Theorem 3.1 sandwiches the worst case:
//!
//! ```text
//! ⌈(3n−1)/2⌉ − 2  ≤  t*(T_n)  ≤  ⌈(1+√2)·n − 1⌉
//! ```
//!
//! This crate provides:
//!
//! * [`BroadcastState`] — the product graph (Definitions 2.1–2.2) in an
//!   `O(n²/64)`-per-round column representation;
//! * [`TreeSource`] — the adversary interface (Definition 2.3);
//! * [`drive`] — the one round loop, over a [`RoundEngine`] (dense,
//!   frontier, prefix, and `treecast-emulation`'s gossip protocol), with a
//!   [`Probe`] watching each round;
//! * [`bounds`] — every formula in the paper's Figure 1, in exact integers;
//! * [`Workload`] / [`run_workload`] — the variant workloads of
//!   arXiv:2211.10151: `k`-broadcast, gossip, token subsets;
//! * [`prefix`] — runs off precomposed prefix products, composed once for
//!   all sources (the `treecast-server` cache's hot path);
//! * [`scenario`] — token loss, root reassignment and dropout, every run
//!   replayable from its [`WorkloadReport::fault_log`];
//! * [`replica`] — the seeded-replica contract shared by the Monte Carlo
//!   layer and the gossip emulation;
//! * [`frontier`] — a sparse engine whose rounds cost O(newly informed),
//!   scaling the same workloads and faults to n = 10⁶;
//! * [`MetricsRecorder`] / [`CertObserver`] — probes recording the
//!   Section 3 matrix quantities and certifying monotonicity, strict
//!   progress and the Theorem 3.1 upper bound.
//!
//! # Examples
//!
//! The static path (Section 2's warm-up adversary) takes exactly `n − 1`
//! rounds, well inside the theorem's window:
//!
//! ```
//! use treecast_core::{bounds, run_workload, Broadcast, SimulationConfig, StaticSource};
//! use treecast_trees::generators;
//!
//! let n = 12;
//! let mut source = StaticSource::new(generators::path(n));
//! let report = run_workload(n, &mut source, &Broadcast, SimulationConfig::for_n(n));
//! let t = report.completion_time_or_panic();
//! assert_eq!(t, (n as u64) - 1);
//! assert!(t <= bounds::upper_bound(n as u64));
//! ```

pub mod bounds;
pub mod cert;
mod drive;
mod engine;
pub mod frontier;
pub mod metrics;
mod model;
pub mod prefix;
pub mod replica;
pub mod scenario;
pub mod workload;

pub use cert::{CertObserver, Violation};
pub use drive::{drive, DenseEngine, Probe, RoundEngine};
pub use engine::{SequenceSource, SimulationConfig, StaticSource, TreeSource};
pub use frontier::{
    run_workload_frontier, run_workload_frontier_faulty, FrontierEngine, FrontierRound,
    FrontierSource, FrontierState, RoundDelta,
};
pub use metrics::{MetricsRecorder, RoundMetrics};
pub use model::BroadcastState;
pub use prefix::{
    run_workload_prefixes, ComposedPrefixes, PrefixEngine, PrefixProvider, PrefixRound,
};
pub use replica::{
    default_budget, replica_seed, splitmix64, FaultSpec, ReplicaOutcome, ReplicaSource, TreeSpec,
    TREE_STREAM_TWEAK,
};
pub use scenario::{
    run_workload_faulty, FaultModel, FaultSchedule, NoFaults, RotatingRoot, RoundFaults,
    SeededFaults,
};
/// The token and reach sets of this crate's API, re-exported so the
/// protocol layers above it name the same type.
pub use treecast_bitmatrix::BitSet;
pub use workload::{
    run_workload, Broadcast, Gossip, KBroadcast, KSourceBroadcast, SourceSet, TrackedTokens,
    Workload, WorkloadOutcome, WorkloadProgress, WorkloadReport,
};
