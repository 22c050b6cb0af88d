//! Seeded Monte Carlo estimation over the treecast fault layer.
//!
//! The paper's linear bound is a worst-case statement over adversarial
//! tree sequences; this crate answers the quantitative questions the
//! proofs leave open — how do *expected* dissemination times and tail
//! quantiles behave under randomized faults, and where is the stall
//! threshold? It layers three pieces over
//! [`treecast_core::scenario`]:
//!
//! * [`estimator`] — fixed-memory online statistics: Welford moments,
//!   P² streaming quantiles (p50/p90/p99), normal and Wilson confidence
//!   intervals, and explicit censoring (a replica that exhausts its
//!   round budget is counted, never averaged);
//! * [`replica`] — seeded replica execution: a [`RunSpec`] cell fans R
//!   independent replicas (derived seeds, dense engine for n ≤ 1024,
//!   frontier-sparse engine above) out over a `std::thread::scope`
//!   worker pool whose slot-per-replica merge makes every estimate
//!   bit-identical for any thread count;
//! * [`mod@sweep`] — parameter grids over the loss rate (and, through
//!   [`sweep_cells`], any other cell field), with the phase-transition
//!   readout (the first
//!   grid point where a majority of replicas stall — the executable
//!   mirror of the companion paper's k ≥ 2 divergence).
//!
//! Everything is deterministic per (spec, base seed): reruns, thread
//! counts and engine choices all reproduce the same statistics, which is
//! what lets `bench_montecarlo` gate estimator cells exactly and
//! `crates/bench/tests/determinism.rs` test the replica pool as one of
//! the workspace's four threaded subsystems.
//!
//! ```
//! use treecast_montecarlo::{estimate, FaultSpec, RunSpec, TreeSpec};
//!
//! let spec = RunSpec::new(16, 1, TreeSpec::Path, FaultSpec::loss(20))
//!     .with_replicas(16)
//!     .with_seed(7);
//! let est = estimate(&spec, 4);
//! assert_eq!(est.stats.replicas(), 16);
//! // Loss only delays the path broadcast; it cannot beat the diameter.
//! assert!(est.stats.min().unwrap_or(0) >= 15);
//! ```

pub mod estimator;
pub mod replica;
pub mod sweep;

pub use estimator::{wilson_interval, OnlineMoments, P2Quantile, RoundStats, Z_95};
pub use replica::{
    default_budget, estimate, estimate_from, replica_seed, run_replica, run_replica_on,
    run_replicas, run_replicas_from, splitmix64, FaultSpec, MonteCarloEstimate, ReplicaOutcome,
    ReplicaSource, RunSpec, TreeSpec, DENSE_MAX_N, TREE_STREAM_TWEAK,
};
pub use sweep::{sweep, sweep_cells, SweepCell, SweepDim, SweepResult};
