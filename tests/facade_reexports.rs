//! Smoke test: every module the `treecast` facade advertises must resolve
//! under its re-exported name, and the headline entry points must be
//! callable. This pins the public API surface the README documents.

use treecast::adversary::SurvivalAdversary;
use treecast::bitmatrix::{BitSet, BoolMatrix, PackedMatrix};
use treecast::core::{bounds, run_workload, Broadcast, BroadcastState, SimulationConfig};
use treecast::nonsplit::cfn_product_is_nonsplit;
use treecast::solver::{solve_with, CanonMode, SolveOptions};
use treecast::trees::{generators, pruefer, random, RootedTree};

#[test]
fn bitmatrix_reexports_resolve() {
    let set = BitSet::new(4);
    assert_eq!(set.universe_size(), 4);
    assert!(BoolMatrix::identity(4).is_reflexive());
    let _ = PackedMatrix::identity(4);
}

#[test]
fn trees_reexports_resolve() {
    let path: RootedTree = generators::path(5);
    assert_eq!(pruefer::encode(&path).len(), 3);
    use treecast::trees; // the module path itself, as the docs spell it
    let star = trees::generators::star(5);
    assert_eq!(star.leaf_count(), 4);
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    assert_eq!(random::uniform(6, &mut rng).n(), 6);
}

#[test]
fn core_reexports_resolve() {
    assert!(bounds::lower_bound(100) <= bounds::upper_bound(100));
    let mut state = BroadcastState::new(3);
    state.apply(&generators::star(3));
    assert!(state.broadcast_witness().is_some());
}

#[test]
fn adversary_reexports_resolve() {
    let n = 8;
    let mut adversary = SurvivalAdversary::default();
    let report = run_workload(n, &mut adversary, &Broadcast, SimulationConfig::for_n(n));
    let t = report
        .broadcast_time
        .expect("survival adversary broadcasts");
    assert!(t <= bounds::upper_bound(n as u64));
}

#[test]
fn solver_reexports_resolve() {
    let result = solve_with(
        3,
        SolveOptions {
            canon: CanonMode::Exact,
            skip_schedule: true,
            threads: 1,
            ..Default::default()
        },
    )
    .expect("n = 3 solves");
    assert!(result.t_star >= 2);
    assert_eq!(Some(result.t_star), bounds::known_t_star(3));
    // The layered engine's expansion primitive is part of the surface.
    let mut gen = treecast::solver::SuccessorGen::new(3);
    let succs = gen.minimal_successors(treecast::solver::state::identity_state(3));
    assert!(!succs.is_empty());
}

#[test]
fn nonsplit_reexports_resolve() {
    // The CFN lemma instance the crate docs open with: n − 1 self-looped
    // rooted trees always multiply to a nonsplit graph.
    let trees = vec![
        generators::path(4),
        generators::star(4),
        generators::path(4),
    ];
    assert!(cfn_product_is_nonsplit(&trees));
}
