//! `treecast-client`: the load generator for [`treecast_server`].
//!
//! [`LoadGen`] draws Zipf-skewed request streams over a seeded pool of
//! random tree sequences; [`LoadGen::run_serial`] serves one through a
//! [`Server`](treecast_server::Server) and produces a [`LoadReport`] with
//! qps, p50/p99/p999 latency, and cache hit rate.
//!
//! The `bench_server` binary in `treecast-bench` drives it against
//! cached and uncached servers and gates the ratio in CI.
//!
//! # Examples
//!
//! ```
//! use treecast_client::{LoadConfig, LoadGen};
//! use treecast_server::{Server, ServerConfig};
//!
//! let mut gen = LoadGen::new(LoadConfig {
//!     n: 16,
//!     pool_size: 4,
//!     seq_len: 2,
//!     requests: 100,
//!     ..LoadConfig::default()
//! });
//! let server = Server::new(ServerConfig::default());
//! let report = gen.run_serial(&server);
//! assert_eq!(report.requests, 100);
//! assert!(report.hit_rate > 0.0, "repeat asks run warm");
//! ```

mod loadgen;

pub use loadgen::{percentile, LoadConfig, LoadGen, LoadReport};
