//! The four workloads, their full and smoke shapes, and the dispatch of
//! one run. `README.md` in this directory records why each was chosen.

use treecast_core::{FaultSpec, TreeSpec};
use treecast_emulation::GossipKnobs;

use crate::metrics::Outcome;
use crate::replica::{self, Engine, ReplicaShape};
use crate::serve::{self, ServeShape};
use crate::trace::Trace;

/// Worker threads for the replica pool and `serve_batch`: the host's
/// parallelism, at most two.
#[must_use]
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Dense engine on the static path under 4‰ token loss.
    McPathLoss,
    /// Frontier engine on a fresh uniform tree every round, n = 10⁴.
    McSeededFrontier,
    /// Zipf closed loop against the server, working set above the cache.
    ServeZipfEvict,
    /// Gossip emulation with a binding bandwidth cap.
    EmuSeededBw8,
}

/// How large a run's inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's shapes.
    Full,
    /// Toy shapes of the same kind, for the tests.
    Smoke,
}

/// A workload's inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// A Monte Carlo replica cell.
    Replica(ReplicaShape),
    /// A serving mix.
    Serve(ServeShape),
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::McPathLoss,
        Workload::McSeededFrontier,
        Workload::ServeZipfEvict,
        Workload::EmuSeededBw8,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::McPathLoss => "mc-path-loss",
            Workload::McSeededFrontier => "mc-seeded-frontier",
            Workload::ServeZipfEvict => "serve-zipf-evict",
            Workload::EmuSeededBw8 => "emu-seeded-bw8",
        }
    }

    /// The workload named `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's inputs at `size`.
    #[must_use]
    pub fn shape(self, size: Size) -> Shape {
        let smoke = size == Size::Smoke;
        match self {
            Workload::McPathLoss => Shape::Replica(ReplicaShape {
                engine: Engine::Synchronous,
                n: if smoke { 48 } else { 1024 },
                k: 1,
                trees: TreeSpec::Path,
                // At toy size 4‰ would rarely fire; 30‰ keeps the masked
                // rounds in the smoke shape.
                faults: FaultSpec::loss_permille(if smoke { 30 } else { 4 }),
                replicas: 4,
            }),
            Workload::McSeededFrontier => Shape::Replica(ReplicaShape {
                engine: Engine::Synchronous,
                // Above DENSE_MAX_N = 1024 even when small, so the
                // frontier engine runs. Not 10⁵: there a replica takes
                // 1.3–2.3 s, and its time follows a drift of the host's
                // memory system that the calibration kernel does not see
                // (ten seeds spread 23–49%). At 10⁴ sampling still
                // dominates the round and ten seeds spread 3–5%.
                n: if smoke { 1500 } else { 10_000 },
                k: if smoke { 4 } else { 16 },
                trees: TreeSpec::SeededUniform,
                faults: FaultSpec::none(),
                replicas: 4,
            }),
            Workload::ServeZipfEvict => Shape::Serve(ServeShape {
                n: if smoke { 24 } else { 1024 },
                pool_size: if smoke { 8 } else { 128 },
                seq_len: if smoke { 12 } else { 24 },
                zipf_s: 1.1,
                batch: if smoke { 4 } else { 32 },
            }),
            Workload::EmuSeededBw8 => {
                Shape::Replica(ReplicaShape {
                    engine: Engine::Emulated(
                        GossipKnobs::unconstrained().with_bandwidth(if smoke { 2 } else { 8 }),
                    ),
                    n: if smoke { 24 } else { 256 },
                    k: if smoke { 3 } else { 8 },
                    trees: TreeSpec::SeededUniform,
                    faults: FaultSpec::none(),
                    replicas: 4,
                })
            }
        }
    }
}

/// One untraced run: the end-to-end metrics.
#[must_use]
pub fn measure(shape: &Shape, seed: u64, seconds: f64) -> Outcome {
    match shape {
        Shape::Replica(s) => replica::measure(s, seed, seconds, threads()),
        Shape::Serve(s) => serve::measure(s, seed, seconds, threads()),
    }
}

/// One traced run: the per-layer metrics and the spans.
#[must_use]
pub fn trace(shape: &Shape, seed: u64, seconds: f64) -> (Outcome, Trace) {
    match shape {
        Shape::Replica(s) => replica::trace(s, seed, seconds, threads()),
        Shape::Serve(s) => serve::trace(s, seed, seconds, threads()),
    }
}
