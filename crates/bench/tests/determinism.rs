//! Concurrency determinism: the four threaded subsystems promise
//! *bit-identical* outputs regardless of thread count.
//!
//! * the solver's sharded layer expansion
//!   ([`treecast_solver::SolveOptions::threads`]),
//! * the server's batch threads ([`Server::serve_batch`]),
//! * the Monte Carlo replica pool ([`estimate`]),
//! * the gossip-emulation replica pool ([`estimate_from`] over
//!   [`EmulationSpec`] cells).
//!
//! Each test runs its subsystem at thread counts {1, 2, 4, 8} on seeded
//! inputs and compares every output with the single-threaded reference
//! by `==`. A fifth test replays the frontier engine single-threaded with
//! [`FrontierState::debug_validate`] between rounds. Each test also pins
//! a splitmix64 fold of the reference outputs, so a change to what the
//! subsystem computes fails here even when all thread counts still agree.
//!
//! The `debug_validate` invariant checkers
//! ([`FrontierState::debug_validate`],
//! [`treecast_server::PrefixCache::debug_validate`]) are compiled only
//! under `debug_assertions`, so this file runs in a debug build. The
//! solver and server tests take most of the time and are `#[ignore]`d in
//! tier-1; `ci.sh full` runs all five with `--include-ignored`.

use treecast_core::{splitmix64, FrontierSource, FrontierState, RoundFaults};
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

/// The thread counts every threaded subsystem is compared across.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn fold(acc: u64, x: u64) -> u64 {
    splitmix64(acc ^ x)
}

/// Fails with every mismatch listed, then with the fingerprint drift.
fn assert_audit(name: &str, fingerprint: u64, mismatches: &[String], pinned: u64) {
    assert!(
        mismatches.is_empty(),
        "{name}: runs that must agree differ:\n{}",
        mismatches.join("\n")
    );
    assert_eq!(
        fingerprint, pinned,
        "{name}: fingerprint {fingerprint:016x} differs from the pinned {pinned:016x}: \
         the serial outputs changed"
    );
}

#[test]
#[ignore = "full tier"]
fn solver() {
    let mut mismatches = Vec::new();
    let mut fingerprint = 0u64;
    for n in [4usize, 5, 6] {
        let solve = |threads: usize| {
            solve_with(
                n,
                SolveOptions {
                    threads,
                    ..SolveOptions::default()
                },
            )
            .expect("exact solve for n <= 6 fits the default limits")
        };
        let reference = solve(1);
        fingerprint = fold(fingerprint, reference.t_star);
        fingerprint = fold(fingerprint, reference.stats.states_explored as u64);
        fingerprint = fold(fingerprint, reference.schedule.len() as u64);
        for threads in &THREAD_COUNTS[1..] {
            let r = solve(*threads);
            if r.t_star != reference.t_star {
                mismatches.push(format!(
                    "n={n} threads={threads}: t* = {} vs serial {}",
                    r.t_star, reference.t_star
                ));
            }
            if r.schedule != reference.schedule {
                mismatches.push(format!(
                    "n={n} threads={threads}: extracted schedule differs"
                ));
            }
            if r.stats != reference.stats {
                mismatches.push(format!(
                    "n={n} threads={threads}: search stats differ ({:?} vs {:?})",
                    r.stats, reference.stats
                ));
            }
        }
    }
    assert_audit("solver", fingerprint, &mismatches, 0x10f6_917e_84d3_20e3);
}

/// A fixed mixed batch: cached broadcast-time queries, a scenario
/// replay, an adversary plan, and an invalid request (the error path
/// must be deterministic too).
fn server_batch() -> Vec<Request> {
    let n = 48;
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
    let mut requests: Vec<Request> = sequences
        .into_iter()
        .enumerate()
        .map(|(i, trees)| Request::BroadcastTime {
            tree_sequence: trees,
            workload: match i % 3 {
                0 => WorkloadSpec::Broadcast,
                1 => WorkloadSpec::KBroadcast { k: 2 },
                _ => WorkloadSpec::Gossip,
            },
            rounds: 0,
        })
        .collect();
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

fn response_fingerprint(responses: &[Response]) -> u64 {
    responses.iter().fold(0, |a, r| {
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

#[test]
#[ignore = "full tier"]
fn server() {
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
        // so cached and uncached serving paths are both compared.
        let cold = server.serve_batch(&requests);
        server.cache().debug_validate();
        let warm = server.serve_batch(&requests);
        server.cache().debug_validate();
        (cold, warm)
    };
    let (reference_cold, reference_warm) = serve(1);
    let mut mismatches = Vec::new();
    if reference_cold != reference_warm {
        mismatches.push("workers=1: warm-cache answers differ from cold answers".to_string());
    }
    for workers in &THREAD_COUNTS[1..] {
        let (cold, warm) = serve(*workers);
        if cold != reference_cold {
            mismatches.push(format!(
                "workers={workers}: cold-cache batch differs from serial"
            ));
        }
        if warm != reference_warm {
            mismatches.push(format!(
                "workers={workers}: warm-cache batch differs from serial"
            ));
        }
    }
    let fingerprint = response_fingerprint(&reference_cold);
    assert_audit("server", fingerprint, &mismatches, 0xa02d_5e9d_83ce_8ff3);
}

/// Folds an estimate's statistics: the exact integer cells plus the IEEE
/// bit patterns of the derived floats, so a single ULP of drift in any
/// thread count's merge would show.
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

/// One cell per engine (dense static, dense seeded-dynamic,
/// frontier-sparse), compared in full (moments, P² quantile markers,
/// censor counts): the slot-per-replica merge promises bit identity, not
/// mere statistical agreement.
#[test]
fn montecarlo() {
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
    for spec in &specs {
        let reference = estimate(spec, 1);
        fingerprint = estimate_fingerprint(fingerprint, &reference);
        for threads in &THREAD_COUNTS[1..] {
            if estimate(spec, *threads) != reference {
                mismatches.push(format!(
                    "n={} k={} {} threads={threads}: estimate differs from the serial reference",
                    spec.n,
                    spec.k,
                    spec.faults.label()
                ));
            }
        }
    }
    assert_audit(
        "montecarlo",
        fingerprint,
        &mismatches,
        0x0c7f_fefb_5ea1_ed8d,
    );
}

/// One cell per protocol regime (unconstrained quiet, bandwidth-capped
/// under a fault cocktail, fan-out/batch-capped on seeded trees). The
/// unconstrained quiet cell must also equal its synchronous model twin
/// estimate for estimate (shared seed, shared streams).
#[test]
fn emulation() {
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
    for spec in &specs {
        let reference = estimate_from(spec, 1);
        fingerprint = estimate_fingerprint(fingerprint, &reference);
        for threads in &THREAD_COUNTS[1..] {
            if estimate_from(spec, *threads) != reference {
                mismatches.push(format!(
                    "n={} k={} {} knobs={} threads={threads}: estimate differs from the \
                     serial reference",
                    spec.n,
                    spec.k,
                    spec.faults.label(),
                    spec.knobs.label()
                ));
            }
        }
    }
    let emulated = estimate_from(&specs[0], 2);
    let model = estimate(
        &RunSpec::new(48, 1, TreeSpec::Path, FaultSpec::none())
            .with_replicas(24)
            .with_budget(specs[0].round_budget)
            .with_seed(31),
        2,
    );
    if emulated.stats != model.stats {
        mismatches.push(
            "unconstrained quiet cell: statistics differ from the synchronous model twin".into(),
        );
    }
    assert_audit("emulation", fingerprint, &mismatches, 0x63ff_118c_82f2_7f90);
}

/// Replays the frontier engine on seeded dynamic trees, validating the
/// state's structural invariants every round, and checks that a second
/// replay reproduces the first bit for bit.
#[test]
fn frontier_invariants() {
    let mut mismatches = Vec::new();
    let mut fingerprint = 0u64;
    for (n, seed) in [(64usize, 11u64), (257, 12), (1000, 13)] {
        let run = || {
            let sources: Vec<usize> = vec![0, n / 2, n - 1];
            let mut state = FrontierState::new(n, &sources);
            let mut src = FrontierSource::seeded(n, seed);
            state.debug_validate();
            let mut trace = 0u64;
            for round in 0..64u64 {
                let reroot = (round % 7 == 3).then_some(round as usize % n);
                let r = src.next_round(n, reroot);
                state.apply_round(r.tree, r.delta, &[]);
                if round % 5 == 4 {
                    state.forget((round as usize * 31) % n);
                }
                state.debug_validate();
                trace = fold(trace, state.disseminated_count() as u64);
            }
            trace
        };
        let first = run();
        let second = run();
        fingerprint = fold(fingerprint, first);
        if first != second {
            mismatches.push(format!(
                "n={n} seed={seed}: replay diverged ({first:016x} vs {second:016x})"
            ));
        }
    }
    assert_audit("frontier", fingerprint, &mismatches, 0xf650_60e5_cbf6_0415);
}
