//! The treecast benchmark: four workloads over the Monte Carlo, frontier,
//! serving and emulation paths, an untraced run that reports end-to-end
//! metrics, and a traced run that splits the same work by layer.
//!
//! Run one workload with
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload mc-path-loss --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is the result: one JSON object with
//! `correct`, `attempted`, `failed` and the metrics. `README.md` next to
//! this crate explains the workloads and what each metric measures.

pub mod metrics;
pub mod replica;
pub mod serve;
pub mod trace;
pub mod workloads;
