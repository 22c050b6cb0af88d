//! The differential harness pinning the workload-aware beam refactor.
//!
//! Three cross-checks, each against an independent engine:
//!
//! * **greedy ≤ beam ≤ exact** — for `n ≤ 6` and every workload in
//!   {broadcast, 2-broadcast, gossip}, the beam's achieved round count is
//!   at least greedy descent's under the same pool/objective, and for
//!   broadcast it never exceeds the exact `t*(n)` recorded from the
//!   solver in `bounds::known_t_star` (the worst case over *all*
//!   adversaries — any replayable schedule must sit below it).
//! * **width 1 ≡ greedy** — a width-1, lookahead-0 beam replays greedy
//!   descent step for step under completion-dominated objectives.
//! * **lookahead 0 ≡ the old scorer** — the generic planner at depth 0
//!   reproduces, tree for tree, the pre-refactor broadcast-only beam
//!   (reimplemented verbatim below as the reference).

#![allow(
    clippy::expect_used,
    reason = "test helper outside a #[test] fn: a failed setup aborts the test"
)]

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;

use treecast::adversary::{
    beam_search_plan, beam_search_workload_plan, survival_rank, ArborescencePool, BeamOptions,
    CandidateGen, GreedyAdversary, MinDisseminated, MinMaxReach, Objective, StructuredPool, Tokens,
};
use treecast::core::{
    bounds, run_workload, Broadcast, BroadcastState, Gossip, KBroadcast, SequenceSource,
    SimulationConfig, Workload, WorkloadProgress,
};
use treecast::trees::RootedTree;

/// The workload grid of the harness: broadcast, 2-broadcast, gossip.
fn workload_by_index(i: usize) -> Box<dyn Workload> {
    match i {
        0 => Box::new(Broadcast),
        1 => Box::new(KBroadcast::new(2)),
        _ => Box::new(Gossip),
    }
}

/// Achieved completion round, with "never" ordered above every finite
/// time (the adversary's ideal outcome).
fn achieved(completion: Option<u64>) -> u64 {
    completion.unwrap_or(u64::MAX)
}

/// Greedy descent's completion time under the shared pool/objective.
fn greedy_time(n: usize, workload: &dyn Workload, cfg: SimulationConfig) -> Option<u64> {
    let mut greedy = GreedyAdversary::new(StructuredPool::new(), MinDisseminated::default());
    run_workload(n, &mut greedy, workload, cfg).completion_time
}

/// Beam completion time: plan offline over the whole replay horizon, then
/// replay the schedule through the public workload engine.
fn beam_time(
    n: usize,
    workload: &dyn Workload,
    width: usize,
    cfg: SimulationConfig,
) -> Option<u64> {
    let mut options = BeamOptions::for_n(n).with_width(width);
    options.max_rounds = cfg.max_rounds;
    let plan = beam_search_workload_plan(
        n,
        &mut StructuredPool::new(),
        &MinDisseminated::default(),
        workload,
        options,
    );
    let mut replay = SequenceSource::new(plan);
    run_workload(n, &mut replay, workload, cfg).completion_time
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// greedy ≤ beam ≤ exact t* (the latter for broadcast, where the
    /// solver's worst case over all adversaries is recorded).
    #[test]
    fn beam_sandwiched_between_greedy_and_exact(
        n in 2usize..7,
        width in 1usize..9,
        workload_idx in 0usize..3,
    ) {
        let workload = workload_by_index(workload_idx);
        let cfg = SimulationConfig::for_n(n);
        let greedy = greedy_time(n, workload.as_ref(), cfg);
        let beam = beam_time(n, workload.as_ref(), width, cfg);
        prop_assert!(
            achieved(beam) >= achieved(greedy),
            "beam (w={width}) {beam:?} lost to greedy {greedy:?} on {} at n = {n}",
            workload.name()
        );
        if workload_idx == 0 {
            let t_star = bounds::known_t_star(n as u64)
                .expect("exact frontier covers n ≤ 7");
            let b = beam.expect("broadcast always completes");
            let g = greedy.expect("broadcast always completes");
            prop_assert!(b <= t_star, "beam {b} exceeded exact t* = {t_star} at n = {n}");
            prop_assert!(g <= t_star, "greedy {g} exceeded exact t* = {t_star} at n = {n}");
        }
    }

    /// A width-1, lookahead-0 beam replays greedy descent step for step
    /// under a completion-dominated objective.
    #[test]
    fn width_one_beam_is_greedy_step_for_step(
        n in 2usize..9,
        workload_idx in 0usize..3,
    ) {
        let workload = workload_by_index(workload_idx);
        let cfg = SimulationConfig::for_n(n);
        let mut options = BeamOptions::for_n(n).with_width(1);
        options.max_rounds = cfg.max_rounds;
        let plan = beam_search_workload_plan(
            n,
            &mut StructuredPool::new(),
            &MinDisseminated::default(),
            workload.as_ref(),
            options,
        );

        // Step greedy by hand on the same pool/objective and compare
        // trees round for round.
        let mut pool = StructuredPool::new();
        let objective = MinDisseminated::default();
        let mut state = BroadcastState::new(n);
        for (i, planned) in plan.iter().enumerate() {
            let progress = WorkloadProgress {
                n,
                round: state.round(),
                tokens: n,
                disseminated: state.disseminated_count(),
            };
            if workload.is_complete(&progress) {
                break;
            }
            if i + 1 == plan.len() && plan.len() as u64 == cfg.max_rounds + 1 {
                // A capped plan ends with an arbitrary closing candidate,
                // not a greedy choice — nothing to compare.
                break;
            }
            let greedy_choice = pool
                .candidates(&state)
                .into_iter()
                .map(|t| (objective.score(Tokens::all(&state), &t), t))
                .min_by_key(|(s, _)| *s)
                .map(|(_, t)| t)
                .expect("structured pool is non-empty");
            prop_assert!(
                planned == &greedy_choice,
                "plan diverged from greedy at round {} (n = {}, {}): {planned} vs {greedy_choice}",
                i + 1,
                n,
                workload.name()
            );
            state.apply(&greedy_choice);
        }

        // And the achieved times agree.
        let mut greedy = GreedyAdversary::new(StructuredPool::new(), MinDisseminated::default());
        let greedy_report = run_workload(n, &mut greedy, workload.as_ref(), cfg);
        let mut replay = SequenceSource::new(plan);
        let beam_report = run_workload(n, &mut replay, workload.as_ref(), cfg);
        prop_assert_eq!(beam_report.completion_time, greedy_report.completion_time);
    }

    /// Also pin width 1 ≡ greedy for the classic broadcast objective
    /// `MinMaxReach` (max reach is completion-dominated too).
    #[test]
    fn width_one_beam_is_greedy_for_max_reach(n in 2usize..10) {
        let cfg = SimulationConfig::for_n(n);
        let mut options = BeamOptions::for_n(n).with_width(1);
        options.max_rounds = cfg.max_rounds;
        let plan = beam_search_workload_plan(
            n,
            &mut StructuredPool::new(),
            &MinMaxReach,
            &Broadcast,
            options,
        );
        let mut pool = StructuredPool::new();
        let mut state = BroadcastState::new(n);
        for planned in &plan {
            if state.broadcast_witness().is_some() {
                break;
            }
            let greedy_choice = pool
                .candidates(&state)
                .into_iter()
                .map(|t| (MinMaxReach.score(Tokens::all(&state), &t), t))
                .min_by_key(|(s, _)| *s)
                .map(|(_, t)| t)
                .expect("structured pool is non-empty");
            prop_assert_eq!(planned, &greedy_choice);
            state.apply(&greedy_choice);
        }
        prop_assert!(state.broadcast_witness().is_some(), "plan must broadcast");
    }
}

// ---------------------------------------------------------------------------
// The pre-refactor beam, reimplemented verbatim as the depth-0 reference.
// ---------------------------------------------------------------------------

fn state_fingerprint(state: &BroadcastState) -> u64 {
    let mut h = DefaultHasher::new();
    for y in 0..state.n() {
        state.heard_set(y).words().hash(&mut h);
    }
    h.finish()
}

/// The old `beam_search_plan`: broadcast-only, survival-ranked, no
/// lookahead — copied from the pre-refactor module.
fn reference_beam_plan<P: CandidateGen + ?Sized>(
    n: usize,
    pool: &mut P,
    options: BeamOptions,
) -> Vec<RootedTree> {
    #[derive(Clone)]
    struct Entry {
        state: BroadcastState,
        schedule: Vec<RootedTree>,
    }
    let root = Entry {
        state: BroadcastState::new(n),
        schedule: Vec::new(),
    };
    if root.state.broadcast_witness().is_some() {
        return pool.candidates(&root.state).into_iter().take(1).collect();
    }
    let mut beam = vec![root];
    let mut last_full_entry: Option<(Entry, RootedTree)> = None;
    let mut probe = BroadcastState::new(n);

    for _round in 0..options.max_rounds {
        let mut next: Vec<Entry> = Vec::new();
        let mut seen: HashSet<u64> = HashSet::new();
        for entry in &beam {
            for tree in pool.candidates(&entry.state) {
                probe.clone_from(&entry.state);
                probe.apply(&tree);
                if probe.broadcast_witness().is_some() {
                    if last_full_entry.is_none() {
                        last_full_entry = Some((entry.clone(), tree));
                    }
                    continue;
                }
                if seen.insert(state_fingerprint(&probe)) {
                    let mut schedule = entry.schedule.clone();
                    schedule.push(tree);
                    next.push(Entry {
                        state: probe.clone(),
                        schedule,
                    });
                }
            }
        }
        if next.is_empty() {
            break;
        }
        next.sort_by_key(|e| survival_rank(&e.state));
        next.truncate(options.width);
        last_full_entry = None;
        beam = next;
    }

    if let Some((entry, tree)) = last_full_entry {
        let mut schedule = entry.schedule;
        schedule.push(tree);
        return schedule;
    }
    let best = beam
        .into_iter()
        .min_by_key(|e| survival_rank(&e.state))
        .expect("beam is never empty");
    let mut schedule = best.schedule;
    if let Some(t) = pool.candidates(&best.state).into_iter().next() {
        schedule.push(t);
    }
    schedule
}

/// Depth-0 lookahead reproduces the pre-refactor scorer tree for tree —
/// this is the regression pin of the beam rewrite.
#[test]
fn depth_zero_beam_matches_pre_refactor_reference() {
    for n in [2usize, 4, 6, 8, 10] {
        for width in [1usize, 4, 16, 48] {
            let options = BeamOptions::for_n(n).with_width(width);
            let new = beam_search_plan(n, &mut StructuredPool::new(), options);
            let old = reference_beam_plan(n, &mut StructuredPool::new(), options);
            assert_eq!(new, old, "structured pool diverged at n = {n}, w = {width}");
        }
    }
    // And over the branching arborescence pool, which exercises forced
    // roots and reweighted candidates.
    for n in [4usize, 6, 8] {
        let options = BeamOptions::for_n(n).with_width(8);
        let new = beam_search_plan(n, &mut ArborescencePool::new(4), options);
        let old = reference_beam_plan(n, &mut ArborescencePool::new(4), options);
        assert_eq!(new, old, "arborescence pool diverged at n = {n}");
    }
}

/// The exact-solver sandwich holds for the strongest configured beam as
/// well: arborescence pool, survival scorer.
#[test]
fn survival_beam_stays_below_exact_t_star() {
    for n in 2..=6usize {
        let plan = beam_search_plan(
            n,
            &mut ArborescencePool::new(4),
            BeamOptions::for_n(n).with_width(16),
        );
        let mut replay = SequenceSource::new(plan);
        let t = run_workload(n, &mut replay, &Broadcast, SimulationConfig::for_n(n))
            .completion_time
            .expect("broadcast completes");
        let t_star = bounds::known_t_star(n as u64).expect("exact frontier covers n ≤ 7");
        assert!(t <= t_star, "n = {n}: beam {t} above exact {t_star}");
    }
}

/// Deeper lookahead stays inside the same sandwich (it may find better
/// stalls, never invalid ones).
#[test]
fn lookahead_beam_stays_sandwiched() {
    for n in 2..=6usize {
        for depth in [1u32, 2] {
            let plan = beam_search_workload_plan(
                n,
                &mut StructuredPool::new(),
                &MinDisseminated::default(),
                &Broadcast,
                BeamOptions::for_n(n).with_width(4).with_lookahead(depth),
            );
            let mut replay = SequenceSource::new(plan);
            let t = run_workload(n, &mut replay, &Broadcast, SimulationConfig::for_n(n))
                .completion_time
                .expect("broadcast completes");
            let t_star = bounds::known_t_star(n as u64).expect("covers n ≤ 7");
            assert!(t <= t_star, "n = {n}, d = {depth}: {t} > {t_star}");
        }
    }
}
