//! The concurrency-determinism audit (`analyze --determinism`).
//!
//! The workspace has four threaded subsystems, and all four promise
//! *bit-identical* outputs regardless of thread count:
//!
//! * the solver's sharded layer expansion
//!   ([`treecast_solver::SolveOptions::threads`]),
//! * the server's batch threads
//!   ([`treecast_server::Server::serve_batch`]),
//! * the Monte Carlo replica pool
//!   ([`treecast_montecarlo::estimate`]),
//! * the gossip-emulation replica pool
//!   ([`treecast_montecarlo::estimate_from`] over
//!   [`treecast_emulation::EmulationSpec`] cells).
//!
//! Each audit runs its subsystem across thread counts {1, 2, 4, 8} on
//! seeded inputs and compares every output against the single-threaded
//! reference with `==` (the types compare structurally, so this is
//! bit-identity of the results). A further, single-threaded audit replays
//! the frontier engine to exercise [`FrontierState::debug_validate`]
//! between rounds.
//!
//! The audits also call the workspace's `debug_validate` invariant
//! checkers ([`FrontierState::debug_validate`],
//! [`treecast_server::PrefixCache::debug_validate`]) — their bodies are
//! compiled only under `debug_assertions`, which is why ci.sh runs this
//! pass in a debug build.

use treecast_core::{FrontierSource, FrontierState, RoundFaults};
use treecast_emulation::{EmulationSpec, GossipKnobs};
use treecast_montecarlo::{
    estimate, estimate_from, FaultSpec, MonteCarloEstimate, RunSpec, TreeSpec,
};
use treecast_server::{
    CacheConfig, ObjectiveSpec, PoolSpec, Request, Response, Schedule, Server, ServerConfig,
    WorkloadSpec,
};
use treecast_solver::{solve_with, SolveOptions};
use treecast_trees::generators;

use crate::report::escape;

/// The audited thread counts.
pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One subsystem's verdict.
#[derive(Debug, Clone)]
pub struct SubsystemAudit {
    /// Subsystem name (`solver`, `server`, `montecarlo`, `emulation`,
    /// `frontier-invariants`).
    pub name: &'static str,
    /// Thread counts exercised.
    pub threads: Vec<usize>,
    /// Seeded configurations compared against the reference.
    pub cases: usize,
    /// Splitmix64 fold of the reference outputs (ties the report to the
    /// exact outputs, not just "they matched each other").
    pub fingerprint: u64,
    /// Mismatch descriptions; empty means the audit passed.
    pub mismatches: Vec<String>,
}

impl SubsystemAudit {
    /// Whether every configuration matched the reference.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// The full audit: one entry per subsystem.
#[derive(Debug, Clone)]
pub struct DeterminismReport {
    /// Per-subsystem verdicts.
    pub audits: Vec<SubsystemAudit>,
}

impl DeterminismReport {
    /// Runs all five audits. Deterministic by construction — every input
    /// is seeded.
    #[must_use]
    pub fn run() -> Self {
        DeterminismReport {
            audits: vec![
                audit_solver(),
                audit_server(),
                audit_montecarlo(),
                audit_emulation(),
                audit_frontier_invariants(),
            ],
        }
    }

    /// Whether every subsystem passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.audits.iter().all(SubsystemAudit::passed)
    }

    /// Human-readable summary, one line per subsystem plus mismatches.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for a in &self.audits {
            out.push_str(&format!(
                "determinism {:<20} threads={:?} cases={} fingerprint={:016x} … {}\n",
                a.name,
                a.threads,
                a.cases,
                a.fingerprint,
                if a.passed() { "ok" } else { "MISMATCH" }
            ));
            for m in &a.mismatches {
                out.push_str(&format!("  {m}\n"));
            }
        }
        out
    }

    /// The `"determinism"` JSON cell, indented by `indent` (the opening
    /// brace is not indented so the value can follow a key in-line).
    #[must_use]
    pub fn render_json(&self, indent: &str) -> String {
        let mut out = format!("{{\n{indent}  \"passed\": {},\n", self.passed());
        out.push_str(&format!("{indent}  \"audits\": [\n"));
        let rows: Vec<String> = self
            .audits
            .iter()
            .map(|a| {
                let mismatches: Vec<String> = a
                    .mismatches
                    .iter()
                    .map(|m| format!("\"{}\"", escape(m)))
                    .collect();
                format!(
                    "{indent}    {{ \"name\": \"{}\", \"threads\": {:?}, \"cases\": {}, \
                     \"fingerprint\": \"{:016x}\", \"passed\": {}, \"mismatches\": [{}] }}",
                    a.name,
                    a.threads,
                    a.cases,
                    a.fingerprint,
                    a.passed(),
                    mismatches.join(", ")
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str(&format!("\n{indent}  ]\n{indent}}}"));
        out
    }
}

/// The same mix as the fingerprint module's chain hash; duplicated here
/// so the audit does not depend on the serving stack for its arithmetic.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn fold(acc: u64, x: u64) -> u64 {
    splitmix64(acc ^ x)
}

fn audit_solver() -> SubsystemAudit {
    let mut mismatches = Vec::new();
    let mut fingerprint = 0u64;
    let mut cases = 0;
    for &n in &[4usize, 5, 6] {
        let solve = |threads: usize| {
            solve_with(
                n,
                SolveOptions {
                    threads,
                    ..SolveOptions::default()
                },
            )
            // analyze: allow(panic): the audit must abort loudly on a failed
            // solve; there is no caller to hand an error to.
            .expect("exact solve for n <= 6 fits the default limits")
        };
        let reference = solve(1);
        fingerprint = fold(fingerprint, reference.t_star);
        fingerprint = fold(fingerprint, reference.stats.states_explored as u64);
        fingerprint = fold(fingerprint, reference.schedule.len() as u64);
        for &threads in &THREAD_COUNTS[1..] {
            let r = solve(threads);
            cases += 1;
            if r.t_star != reference.t_star {
                mismatches.push(format!(
                    "solver n={n} threads={threads}: t* = {} vs serial {}",
                    r.t_star, reference.t_star
                ));
            }
            if r.schedule != reference.schedule {
                mismatches.push(format!(
                    "solver n={n} threads={threads}: extracted schedule differs"
                ));
            }
            if r.stats != reference.stats {
                mismatches.push(format!(
                    "solver n={n} threads={threads}: search stats differ \
                     ({:?} vs {:?})",
                    r.stats, reference.stats
                ));
            }
        }
    }
    SubsystemAudit {
        name: "solver",
        threads: THREAD_COUNTS.to_vec(),
        cases,
        fingerprint,
        mismatches,
    }
}

/// A fixed mixed batch: cached broadcast-time queries, a scenario
/// replay, an adversary plan, and an invalid request (the error path
/// must be deterministic too).
fn server_batch() -> Vec<Request> {
    let n = 48;
    let mut requests = Vec::new();
    let sequences: [Vec<_>; 4] = [
        vec![generators::path(n)],
        vec![
            generators::star(n),
            generators::path(n),
            generators::broom(n, 8),
        ],
        vec![
            generators::caterpillar(n, 12),
            generators::complete_binary(n),
        ],
        vec![generators::spider(n, 6), generators::double_broom(n, 5, 10)],
    ];
    for (i, trees) in sequences.into_iter().enumerate() {
        let workload = match i % 3 {
            0 => WorkloadSpec::Broadcast,
            1 => WorkloadSpec::KBroadcast { k: 2 },
            _ => WorkloadSpec::Gossip,
        };
        requests.push(Request::BroadcastTime {
            tree_sequence: trees,
            workload,
            rounds: 0,
        });
    }
    requests.push(Request::ScenarioReplay {
        schedule: Schedule {
            trees: vec![generators::star(12), generators::path(12)],
            faults: vec![
                RoundFaults {
                    losses: vec![3],
                    root: Some(2),
                    offline: vec![5],
                },
                RoundFaults::default(),
            ],
            workload: WorkloadSpec::Gossip,
            rounds: 0,
        },
    });
    requests.push(Request::AdversaryPlan {
        n: 6,
        pool: PoolSpec::Sampled { count: 12, seed: 7 },
        objective: ObjectiveSpec::MinDisseminated,
        width: 3,
        workload: WorkloadSpec::Broadcast,
    });
    requests.push(Request::BroadcastTime {
        tree_sequence: vec![generators::path(8)],
        workload: WorkloadSpec::KBroadcast { k: 0 }, // invalid: k = 0
        rounds: 0,
    });
    requests
}

fn response_fingerprint(acc: u64, responses: &[Response]) -> u64 {
    responses.iter().fold(acc, |a, r| {
        let x = match r {
            Response::BroadcastTime { report } | Response::ScenarioReplay { report } => {
                fold(report.rounds, report.disseminated as u64)
            }
            Response::AdversaryPlan { report } => {
                fold(report.replay.rounds, report.schedule.len() as u64)
            }
            Response::Error { message } => message.len() as u64,
        };
        fold(a, x)
    })
}

fn audit_server() -> SubsystemAudit {
    let requests = server_batch();
    let serve = |workers: usize| {
        let server = Server::new(ServerConfig {
            workers,
            cache: CacheConfig {
                shards: 4,
                byte_budget: 1 << 20,
            },
        });
        // Two passes per worker count: the second hits the warm cache,
        // so cached and uncached serving paths both face the audit.
        let cold = server.serve_batch(&requests);
        server.cache().debug_validate();
        let warm = server.serve_batch(&requests);
        server.cache().debug_validate();
        (cold, warm)
    };
    let (reference_cold, reference_warm) = serve(1);
    if reference_cold != reference_warm {
        return SubsystemAudit {
            name: "server",
            threads: THREAD_COUNTS.to_vec(),
            cases: 1,
            fingerprint: response_fingerprint(0, &reference_cold),
            mismatches: vec![
                "server workers=1: warm-cache answers differ from cold answers".into(),
            ],
        };
    }
    let mut mismatches = Vec::new();
    let mut cases = 0;
    for &workers in &THREAD_COUNTS[1..] {
        let (cold, warm) = serve(workers);
        cases += 2;
        if cold != reference_cold {
            mismatches.push(format!(
                "server workers={workers}: cold-cache batch differs from serial"
            ));
        }
        if warm != reference_warm {
            mismatches.push(format!(
                "server workers={workers}: warm-cache batch differs from serial"
            ));
        }
    }
    SubsystemAudit {
        name: "server",
        threads: THREAD_COUNTS.to_vec(),
        cases,
        fingerprint: response_fingerprint(0, &reference_cold),
        mismatches,
    }
}

/// Folds an estimate's statistics into the audit fingerprint: the exact
/// integer cells plus the IEEE bit patterns of the derived floats, so a
/// single ULP of drift in any thread count's merge would show.
fn estimate_fingerprint(acc: u64, est: &MonteCarloEstimate) -> u64 {
    let ints = [
        est.stats.completed(),
        est.stats.censored(),
        est.stats.total_rounds(),
        est.stats.min().unwrap_or(0),
        est.stats.max().unwrap_or(0),
    ];
    let floats = [
        est.stats.mean(),
        est.stats.std_dev(),
        est.stats.p50().unwrap_or(0.0),
        est.stats.p90().unwrap_or(0.0),
        est.stats.p99().unwrap_or(0.0),
    ];
    let acc = ints.iter().fold(acc, |a, &x| fold(a, x));
    floats.iter().fold(acc, |a, &x| fold(a, x.to_bits()))
}

/// Drives the Monte Carlo replica pool — the workspace's fourth threaded
/// subsystem — across the audited thread counts on one cell per engine
/// (dense static, dense seeded-dynamic, frontier-sparse) and compares the
/// full estimates (moments, P² quantile markers, censor counts) against
/// the single-threaded reference with `==`. The slot-per-replica merge
/// promises bit identity, not mere statistical agreement.
fn audit_montecarlo() -> SubsystemAudit {
    let specs = [
        RunSpec::new(64, 1, TreeSpec::Path, FaultSpec::loss(25))
            .with_replicas(24)
            .with_seed(21),
        RunSpec::new(48, 2, TreeSpec::SeededUniform, FaultSpec::dropout(10, 2))
            .with_replicas(24)
            .with_seed(22),
        // n > DENSE_MAX_N: the frontier-sparse engine path.
        RunSpec::new(2048, 4, TreeSpec::SeededUniform, FaultSpec::loss(10))
            .with_replicas(8)
            .with_budget(512)
            .with_seed(23),
    ];
    let mut mismatches = Vec::new();
    let mut fingerprint = 0u64;
    let mut cases = 0;
    for spec in &specs {
        let reference = estimate(spec, 1);
        fingerprint = estimate_fingerprint(fingerprint, &reference);
        for &threads in &THREAD_COUNTS[1..] {
            let r = estimate(spec, threads);
            cases += 1;
            if r != reference {
                mismatches.push(format!(
                    "montecarlo n={} k={} {} threads={threads}: estimate differs \
                     from the serial reference",
                    spec.n,
                    spec.k,
                    spec.faults.label()
                ));
            }
        }
    }
    SubsystemAudit {
        name: "montecarlo",
        threads: THREAD_COUNTS.to_vec(),
        cases,
        fingerprint,
        mismatches,
    }
}

/// Drives the gossip-emulation replica pool — the workspace's fifth
/// threaded subsystem — across the audited thread counts: the generic
/// [`estimate_from`] pool over [`EmulationSpec`] cells, one per
/// protocol regime (unconstrained quiet, bandwidth-capped under a
/// fault cocktail, fan-out/batch-capped on seeded trees), compared
/// against the single-threaded reference with `==`. The unconstrained
/// quiet cell doubles as a cross-subsystem pin: its fingerprint folds
/// an estimate that must equal the synchronous model's.
fn audit_emulation() -> SubsystemAudit {
    let free = GossipKnobs::unconstrained();
    let specs = [
        EmulationSpec::new(48, 1, TreeSpec::Path, FaultSpec::none(), free)
            .with_replicas(24)
            .with_seed(31),
        EmulationSpec::new(
            32,
            2,
            TreeSpec::Star,
            FaultSpec::loss(20),
            free.with_bandwidth(2),
        )
        .with_replicas(24)
        .with_budget(256)
        .with_seed(32),
        EmulationSpec::new(
            40,
            4,
            TreeSpec::SeededUniform,
            FaultSpec::dropout(10, 2),
            free.with_fanout(2).with_batch(3),
        )
        .with_replicas(24)
        .with_budget(192)
        .with_seed(33),
    ];
    let mut mismatches = Vec::new();
    let mut fingerprint = 0u64;
    let mut cases = 0;
    for spec in &specs {
        let reference = estimate_from(spec, 1);
        fingerprint = estimate_fingerprint(fingerprint, &reference);
        for &threads in &THREAD_COUNTS[1..] {
            let r = estimate_from(spec, threads);
            cases += 1;
            if r != reference {
                mismatches.push(format!(
                    "emulation n={} k={} {} knobs={} threads={threads}: estimate \
                     differs from the serial reference",
                    spec.n,
                    spec.k,
                    spec.faults.label(),
                    spec.knobs.label()
                ));
            }
        }
    }
    // The cross-subsystem pin: the unconstrained quiet cell must equal
    // its synchronous twin estimate-for-estimate (shared seed, shared
    // streams, pinned protocol).
    let emulated = estimate_from(&specs[0], 2);
    let model = estimate(
        &RunSpec::new(48, 1, TreeSpec::Path, FaultSpec::none())
            .with_replicas(24)
            .with_budget(specs[0].round_budget)
            .with_seed(31),
        2,
    );
    cases += 1;
    if emulated.stats != model.stats {
        mismatches.push(
            "emulation unconstrained quiet cell: statistics differ from the \
             synchronous model twin"
                .into(),
        );
    }
    SubsystemAudit {
        name: "emulation",
        threads: THREAD_COUNTS.to_vec(),
        cases,
        fingerprint,
        mismatches,
    }
}

/// Replays the frontier engine on seeded dynamic trees, validating the
/// state's structural invariants every round and checking that a second
/// replay reproduces the first bit-for-bit.
fn audit_frontier_invariants() -> SubsystemAudit {
    let mut mismatches = Vec::new();
    let mut fingerprint = 0u64;
    let mut cases = 0;
    for &(n, seed) in &[(64usize, 11u64), (257, 12), (1000, 13)] {
        let run = || {
            let sources: Vec<usize> = vec![0, n / 2, n - 1];
            let mut state = FrontierState::new(n, &sources);
            let mut src = FrontierSource::seeded(n, seed);
            state.debug_validate();
            let mut trace = 0u64;
            for round in 0..64u64 {
                let reroot = if round % 7 == 3 {
                    Some((round as usize) % n)
                } else {
                    None
                };
                let r = src.next_round(n, reroot);
                state.apply_round(r.tree, r.delta, &[]);
                if round % 5 == 4 {
                    state.forget(((round as usize) * 31) % n);
                }
                state.debug_validate();
                trace = fold(trace, state.disseminated_count() as u64);
            }
            trace
        };
        let first = run();
        let second = run();
        cases += 1;
        fingerprint = fold(fingerprint, first);
        if first != second {
            mismatches.push(format!(
                "frontier n={n} seed={seed}: replay diverged ({first:016x} vs {second:016x})"
            ));
        }
    }
    SubsystemAudit {
        name: "frontier-invariants",
        threads: vec![1],
        cases,
        fingerprint,
        mismatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_cell_shape() {
        let report = DeterminismReport {
            audits: vec![SubsystemAudit {
                name: "solver",
                threads: vec![1, 2],
                cases: 2,
                fingerprint: 0xabc,
                mismatches: vec!["a \"quoted\" mismatch".into()],
            }],
        };
        assert!(!report.passed());
        let json = report.render_json("  ");
        assert!(json.contains("\"passed\": false"));
        assert!(json.contains("\"fingerprint\": \"0000000000000abc\""));
        assert!(json.contains("a \\\"quoted\\\" mismatch"));
        assert!(report.render_text().contains("MISMATCH"));
    }

    #[test]
    fn frontier_audit_passes() {
        let audit = audit_frontier_invariants();
        assert!(audit.passed(), "{:?}", audit.mismatches);
    }

    #[test]
    fn montecarlo_audit_passes() {
        let audit = audit_montecarlo();
        assert!(audit.passed(), "{:?}", audit.mismatches);
        assert!(audit.cases > 0);
        assert_ne!(audit.fingerprint, 0, "fingerprint must bind the outputs");
    }

    #[test]
    fn emulation_audit_passes() {
        let audit = audit_emulation();
        assert!(audit.passed(), "{:?}", audit.mismatches);
        assert!(audit.cases > 0);
        assert_ne!(audit.fingerprint, 0, "fingerprint must bind the outputs");
    }
}
