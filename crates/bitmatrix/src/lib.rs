//! Boolean vectors and adjacency matrices for dynamic-network broadcast
//! analysis.
//!
//! This crate is the lowest-level substrate of the `treecast` workspace, a
//! reproduction of *"Brief Announcement: Broadcasting Time in Dynamic Rooted
//! Trees is Linear"* (El-Hayek, Henzinger & Schmid, PODC 2022). The paper's
//! central idea is to study the broadcast problem through the **evolution of
//! boolean adjacency matrices** under the graph product
//!
//! ```text
//! (x, y) ∈ A∘B  ⇔  ∃z. (x, z) ∈ A ∧ (z, y) ∈ B      (Definition 2.1)
//! ```
//!
//! Three representations are provided:
//!
//! * [`BitSet`] — a dense set over `{0, …, n−1}`; reach sets and
//!   heard-from sets.
//! * [`BoolMatrix`] — an `n×n` matrix in one contiguous row-major
//!   `Vec<u64>` with the product ([`BoolMatrix::compose_into`] is the
//!   allocation-free row-union loop, kept as the oracle for the
//!   tree-round steps that runs use instead),
//!   transpose, weight profiles, and the broadcast/gossip/nonsplit
//!   predicates used throughout the evaluation. Rows are borrowed out as
//!   [`RowRef`]/[`RowMut`] views, interchangeable with [`BitSet`] through
//!   the [`BitView`] trait.
//! * [`HybridRow`] — a sparse-until-promoted row (sorted index list below a
//!   per-universe threshold, dense words above) for the frontier engine's
//!   million-node states.
//!
//! # Examples
//!
//! One round of a rooted star (center 0) broadcasts immediately, while a
//! path needs `n − 1` rounds:
//!
//! ```
//! use treecast_bitmatrix::BoolMatrix;
//!
//! let n = 4;
//! let mut star = BoolMatrix::identity(n);
//! for leaf in 1..n {
//!     star.set(0, leaf, true);
//! }
//! // One round of the star: node 0 has reached everyone.
//! assert!(star.has_full_row());
//! ```
//!
//! # Feature flags
//!
//! * `serde` — `Serialize`/`Deserialize` for [`BitSet`] and [`BoolMatrix`].
//! * `proptest` — exposes the `strategies` module for downstream property
//!   tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod hybrid;
mod matrix;
mod row;

#[cfg(feature = "proptest")]
pub mod strategies;

pub use bitset::{gather_word, BitSet, BitView, Iter, ParseBitSetError};
pub use hybrid::{hybrid_threshold, HybridIter, HybridRow};
pub use matrix::{BoolMatrix, ParseMatrixError};
pub use row::{RowMut, RowRef};
