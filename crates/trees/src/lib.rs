//! Rooted labeled trees: the adversary's alphabet.
//!
//! In the broadcast model of *"Broadcasting Time in Dynamic Rooted Trees is
//! Linear"* (El-Hayek, Henzinger & Schmid, PODC 2022), the adversary picks
//! one rooted tree over `n` nodes per round from the pool `T_n` of all
//! `n^(n−1)` labeled rooted trees (self-loops are added by the model). This
//! crate supplies everything about that pool:
//!
//! * [`RootedTree`] — a validated parent array indexed in flat CSR form
//!   (children, depths and BFS order in a handful of vectors, no per-node
//!   allocation), plus conversions to adjacency matrices.
//! * [`generators`] — deterministic families: paths, stars, brooms,
//!   caterpillars, spiders, k-ary trees, exact-leaf/exact-inner shapes.
//! * [`random`] — seeded random generation: uniform over `T_n` via Prüfer
//!   sequences (also into a reused tree, allocation-free), random
//!   recursive trees, exact-leaf-count sampling.
//! * [`pruefer`] — the Prüfer bijection itself.
//! * [`enumerate`] — exhaustive enumeration of `T_n` for `n ≤ 8` (the
//!   exact solver's substrate).
//!
//! # Examples
//!
//! ```
//! use treecast_trees::{generators, RootedTree};
//!
//! let t = generators::broom(6, 3);
//! assert_eq!(t.inner_count(), 3);
//! let m = t.to_matrix(true); // with self-loops, as the model requires
//! assert!(m.is_reflexive());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arborescence;
pub mod enumerate;
pub mod generators;
pub mod pruefer;
pub mod random;
mod tree;

pub use tree::{NodeId, RootedTree, TreeError, TreeShape};
