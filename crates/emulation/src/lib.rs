//! Asynchronous push/pull gossip-protocol emulation over
//! adversary-controlled round trees, pinned round-for-round to the
//! synchronous engines.
//!
//! In the paper's synchronous model every tree edge transfers the
//! parent's whole heard-from set at once. Real gossip peers advertise
//! what they hold, request what they miss, and serve requests under
//! bandwidth, fan-out and batching limits. This crate runs that protocol
//! over the same trees, faults and workloads, to measure how much
//! completion time the resource limits add on top of the adversary.
//!
//! * [`protocol`] — `n` peers ([`EmulationState`]) exchanging adverts,
//!   requests and deliveries through FIFO queues, under [`GossipKnobs`];
//! * [`runner`] — [`EmulationEngine`] and [`run_emulation`], the gossip
//!   protocol on the core round driver;
//! * [`spec`] — [`EmulationSpec`], a [`treecast_core::ReplicaSource`]
//!   stream-paired seed-for-seed with the synchronous cells, with
//!   [`EmuSweepDim`] making the knobs sweepable.
//!
//! With every knob unconstrained an emulated run equals the synchronous
//! run report-for-report, fault log included (`tests/differential.rs`).
//!
//! ```
//! use treecast_core::scenario::NoFaults;
//! use treecast_core::{Broadcast, SimulationConfig, StaticSource};
//! use treecast_emulation::{run_emulation, GossipKnobs};
//! use treecast_trees::generators;
//!
//! let n = 8;
//! let cfg = SimulationConfig::for_n(n);
//! let mut source = StaticSource::new(generators::star(n));
//! // Unconstrained: the star broadcasts in 1 round, like the model.
//! let free = run_emulation(n, &mut source, &Broadcast,
//!     &GossipKnobs::unconstrained(), &mut NoFaults, cfg);
//! assert_eq!(free.completion_time, Some(1));
//! // One payload per peer per round: the same broadcast takes n − 1.
//! let mut source = StaticSource::new(generators::star(n));
//! let capped = run_emulation(n, &mut source, &Broadcast,
//!     &GossipKnobs::unconstrained().with_bandwidth(1), &mut NoFaults, cfg);
//! assert_eq!(capped.completion_time, Some(7));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod protocol;
pub mod runner;
pub mod spec;

pub use protocol::{EmulationState, GossipKnobs, QueueDiscipline, TokenSet};
pub use runner::{run_emulation, run_emulation_traced, EmulationEngine};
pub use spec::{EmuSweepDim, EmulationSpec};
