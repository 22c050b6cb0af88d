//! Exact worst-case broadcast time `t*(T_n)` for small `n`.
//!
//! The paper proves `⌈(3n−1)/2⌉ − 2 ≤ t*(T_n) ≤ ⌈(1+√2)n − 1⌉` but computes
//! no exact values; this crate closes that loop experimentally by solving
//! the adversary's optimization exactly for small sizes (`n ≤ 6` in
//! seconds, `n = 7` in about two hours on one release-mode core — see the
//! bench crate):
//!
//! * [`solve`] / [`solve_with`] — iterative layered search over the
//!   edge-count-graded state DAG: thread-sharded forward discovery
//!   followed by backward value propagation, with isomorphism reduction
//!   ([`CanonMode`]) and dominance pruning.
//! * [`SuccessorGen`] — the expansion primitive: streams the distinct
//!   ⊆-minimal successors of a state with an early witness cut, in time
//!   proportional to the successors rather than the `n^(n−1)` trees.
//! * [`SolveResult`] carries an optimal adversary tree sequence, which
//!   [`verify_schedule`] replays through the public simulation engine as an
//!   end-to-end consistency check.
//!
//! # Examples
//!
//! ```
//! use treecast_core::bounds;
//! use treecast_solver::{solve, verify_schedule};
//!
//! let result = solve(4)?;
//! // Theorem 3.1 sandwich holds for the exact optimum…
//! assert!(bounds::lower_bound(4) <= result.t_star);
//! assert!(result.t_star <= bounds::upper_bound(4));
//! // …and the optimal schedule replays to the same value.
//! assert_eq!(verify_schedule(4, &result.schedule), result.t_star);
//! # Ok::<(), treecast_solver::SolveError>(())
//! ```

mod canon;
mod pool;
mod search;
pub mod state;

pub use canon::{canonicalize, permute, CanonMode};
pub use pool::{GenStats, Successor, SuccessorGen, TreePool};
pub use search::{
    solve, solve_with, verify_schedule, SolveError, SolveOptions, SolveResult, SolveStats,
};
