//! Adversary strategies for the dynamic rooted-tree broadcast game.
//!
//! Definition 2.3 of the paper gives the adversary free choice of one
//! rooted tree per round, aiming to maximize broadcast time. The upper
//! bound `⌈(1+√2)n − 1⌉` limits what *any* strategy can achieve; this crate
//! supplies the strategies that probe how close that bound is:
//!
//! * **Baselines** — static path/star ([`treecast_core::StaticSource`]),
//!   [`UniformRandomAdversary`], [`FamilyRandomAdversary`].
//! * **Structural** — [`FreezeLeaderAdversary`], the seesaw that pins the
//!   most-spread token inside a closed subtree each round.
//! * **Search-based** — [`GreedyAdversary`] over pluggable [`Objective`]s
//!   and [`CandidateGen`] pools, and offline
//!   [`beam_search_plan`] whose schedules replay as certified lower
//!   bounds. The stack searches one state, the
//!   [`treecast_core::BroadcastState`], and scores it through [`Tokens`]:
//!   the columns of the workload's sources (every column, or the `k`
//!   source columns). So [`beam_search_workload_plan`] hunts worst cases
//!   for any [`treecast_core::Workload`] (`k`-broadcast, gossip,
//!   `k`-source) with optional depth-`d` lookahead.
//! * **Restricted** — [`ExactLeafPool`] / [`ExactInnerPool`] reproduce the
//!   Zeiner–Schwarz–Schmid `k`-leaves / `k`-inner-nodes adversaries
//!   (Figure 1's restricted rows).
//! * **Tournament** — [`run_tournament`] races a [`Lineup`] across a grid
//!   of `n`, powering experiments E1/E2/E10.
//!
//! # Examples
//!
//! ```
//! use treecast_adversary::SurvivalAdversary;
//! use treecast_core::{bounds, run_workload, Broadcast, SimulationConfig};
//!
//! let n = 20;
//! let mut adversary = SurvivalAdversary::default();
//! let t = run_workload(n, &mut adversary, &Broadcast, SimulationConfig::for_n(n))
//!     .broadcast_time
//!     .unwrap();
//! // Clearly beats the static path's n − 1, never breaks the theorem.
//! assert!(t > (n as u64) - 1);
//! assert!(t <= bounds::upper_bound(n as u64));
//! ```

mod beam;
mod candidates;
pub mod gain;
mod objectives;
mod strategies;
mod survival;
pub mod tournament;

pub use beam::{beam_search_plan, beam_search_workload_plan, BeamOptions, BeamSearchAdversary};
pub use candidates::{
    CandidateGen, ExactInnerPool, ExactLeafPool, ExhaustivePool, SampledPool, StructuredPool,
};
pub use objectives::{
    MinDisseminated, MinMaxReach, MinNearWinners, MinNewEdges, MinSumReach, Objective, Tokens,
};
pub use strategies::{
    FamilyRandomAdversary, FreezeLeaderAdversary, GreedyAdversary, UniformRandomAdversary,
};
pub use survival::{survival_rank, ArborescencePool, SurvivalAdversary, SurvivalObjective};
pub use tournament::{
    best_per_n, render_table, run_tournament, standard_lineup, to_csv, AdversaryFactory, Lineup,
    TournamentConfig, TournamentRow,
};
