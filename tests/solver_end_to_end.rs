//! End-to-end solver pipeline: exact optima flow through the public API —
//! schedules replay in the engine, pass the certificates, and match the
//! theorem.

use treecast::core::{
    bounds, drive, Broadcast, CertObserver, DenseEngine, NoFaults, SequenceSource, SimulationConfig,
};
use treecast::solver::{solve, solve_with, verify_schedule, CanonMode, SolveOptions};

#[test]
fn exact_values_match_the_zss_lower_bound() {
    // The headline experimental finding (E7): t*(T_n) = ⌈(3n−1)/2⌉ − 2 for
    // every n the solver reaches in test time.
    for n in 2..=5usize {
        let r = solve(n).expect("small n solves");
        assert_eq!(
            r.t_star,
            bounds::lower_bound(n as u64),
            "ZSS bound not tight at n = {n}?!"
        );
    }
}

#[test]
fn optimal_schedules_replay_and_certify() {
    for n in 2..=5usize {
        let r = solve(n).expect("small n solves");
        assert_eq!(r.schedule.len() as u64, r.t_star);
        assert_eq!(verify_schedule(n, &r.schedule), r.t_star);

        // Replaying through the engine with full certificates on.
        let mut cert = CertObserver::full();
        let mut source = SequenceSource::new(r.schedule.clone());
        let mut dense = DenseEngine::new(n, &mut source, &Broadcast);
        let cfg = SimulationConfig::for_n(n);
        let report = drive(&mut dense, &Broadcast, &mut NoFaults, cfg, false, &mut cert);
        assert!(cert.is_clean(), "n = {n}: {:?}", cert.violations());
        assert_eq!(report.broadcast_time, Some(r.t_star));
    }
}

#[test]
fn canonicalization_modes_agree_end_to_end() {
    for n in 2..=5usize {
        let mut values = Vec::new();
        for canon in [CanonMode::Exact, CanonMode::Fast, CanonMode::None] {
            let r = solve_with(
                n,
                SolveOptions {
                    canon,
                    skip_schedule: true,
                    ..Default::default()
                },
            )
            .expect("small n solves");
            values.push(r.t_star);
        }
        assert!(
            values.windows(2).all(|w| w[0] == w[1]),
            "canon modes disagree at n = {n}: {values:?}"
        );
    }
}

#[test]
fn exact_orbit_reduction_shrinks_the_search() {
    let exact = solve_with(
        5,
        SolveOptions {
            canon: CanonMode::Exact,
            skip_schedule: true,
            ..Default::default()
        },
    )
    .unwrap();
    let none = solve_with(
        5,
        SolveOptions {
            canon: CanonMode::None,
            skip_schedule: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(
        exact.stats.states_explored < none.stats.states_explored,
        "orbit reduction must shrink the memo: {} vs {}",
        exact.stats.states_explored,
        none.stats.states_explored
    );
}
