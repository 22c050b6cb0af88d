//! `treecast` — broadcasting time in dynamic rooted trees.
//!
//! A full reproduction of *"Brief Announcement: Broadcasting Time in
//! Dynamic Rooted Trees is Linear"* (Antoine El-Hayek, Monika Henzinger,
//! Stefan Schmid — PODC 2022, arXiv:2211.11352): the synchronous broadcast
//! model over adversarial rooted-tree rounds, the bound formulas of
//! Theorem 3.1 and Figure 1, a zoo of delaying adversaries, an exact
//! worst-case solver for small `n`, and the nonsplit-graph machinery of
//! the prior bounds.
//!
//! This facade crate re-exports the member crates under stable names:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`bitmatrix`] | `treecast-bitmatrix` | bitsets, boolean adjacency matrices, the Definition 2.1 product |
//! | [`trees`] | `treecast-trees` | rooted trees, generators, Prüfer codes, enumeration, arborescences |
//! | [`core`] | `treecast-core` | the model, simulation engine, bounds, metrics, certificates |
//! | [`adversary`] | `treecast-adversary` | delaying strategies, candidate pools, beam search, tournaments |
//! | [`solver`] | `treecast-solver` | exact `t*(T_n)` by state-space search |
//! | [`nonsplit`] | `treecast-nonsplit` | nonsplit graphs, the CFN lemma, FNW dissemination |
//! | [`montecarlo`] | `treecast-montecarlo` | seeded Monte Carlo estimation over the fault layer: replica pools, online statistics, phase-transition sweeps |
//! | [`emulation`] | `treecast-emulation` | asynchronous push/pull gossip emulation over adversary trees, knob-bounded, pinned to the synchronous model when unconstrained |
//!
//! # Quickstart
//!
//! ```
//! use treecast::core::{bounds, run_workload, Broadcast, SimulationConfig};
//! use treecast::adversary::SurvivalAdversary;
//!
//! let n = 16;
//! let mut adversary = SurvivalAdversary::default();
//! let report = run_workload(n, &mut adversary, &Broadcast, SimulationConfig::for_n(n));
//! let t = report.broadcast_time.unwrap();
//! assert!(t > (n as u64) - 1, "beats the static path");
//! assert!(t <= bounds::upper_bound(n as u64), "Theorem 3.1 upper bound");
//! ```
//!
//! See the `examples/` directory for runnable scenarios and the
//! `experiments` binary (`crates/bench`) for the full table/figure
//! reproduction harness.

pub use treecast_adversary as adversary;
pub use treecast_bitmatrix as bitmatrix;
pub use treecast_core as core;
pub use treecast_emulation as emulation;
pub use treecast_montecarlo as montecarlo;
pub use treecast_nonsplit as nonsplit;
pub use treecast_solver as solver;
pub use treecast_trees as trees;
