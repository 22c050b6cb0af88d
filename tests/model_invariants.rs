//! Cross-crate property tests: the paper's structural facts must hold for
//! every adversary and every random tree sequence the workspace can
//! produce.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use treecast::adversary::{FamilyRandomAdversary, SurvivalAdversary, UniformRandomAdversary};
use treecast::bitmatrix::BoolMatrix;
use treecast::core::{
    bounds, drive, Broadcast, BroadcastState, CertObserver, DenseEngine, NoFaults, SimulationConfig,
};
use treecast::trees::{random, RootedTree};

/// Column-view incremental state must equal the literal Definition 2.1
/// product for arbitrary random tree sequences.
#[test]
fn column_view_equals_matrix_product() {
    let mut rng = StdRng::seed_from_u64(101);
    for n in [2usize, 3, 5, 9, 17] {
        let mut state = BroadcastState::new(n);
        let mut product = BoolMatrix::identity(n);
        for round in 0..2 * n {
            let tree = random::uniform(n, &mut rng);
            state.apply(&tree);
            product = product.compose(&tree.to_matrix(true));
            assert_eq!(
                state.product_matrix(),
                product,
                "n = {n}, diverged at round {round}"
            );
        }
    }
}

/// Monotonicity + strict progress + the Theorem 3.1 upper bound, checked
/// by the certificate observer on live runs of three adversaries.
#[test]
fn certificates_hold_for_all_adversaries() {
    for n in [2usize, 6, 13, 25] {
        for seed in 0..3u64 {
            let mut checks: Vec<(&str, Box<dyn treecast::core::TreeSource>)> = vec![
                ("uniform", Box::new(UniformRandomAdversary::new(seed))),
                ("family", Box::new(FamilyRandomAdversary::new(seed))),
                ("survival", Box::new(SurvivalAdversary::default())),
            ];
            for (name, source) in checks.iter_mut() {
                let mut cert = CertObserver::full();
                let mut dense = DenseEngine::new(n, source, &Broadcast);
                let cfg = SimulationConfig::for_n(n);
                let report = drive(&mut dense, &Broadcast, &mut NoFaults, cfg, false, &mut cert);
                assert!(
                    cert.is_clean(),
                    "{name} at n = {n}, seed {seed}: {:?}",
                    cert.violations()
                );
                let t = report.broadcast_time.expect("must broadcast");
                assert!(t <= bounds::upper_bound(n as u64));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every product of self-looped trees is reflexive and monotone.
    #[test]
    fn products_are_reflexive_and_monotone(seed in 0u64..1000, n in 2usize..10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut product = BoolMatrix::identity(n);
        for _ in 0..n {
            let tree = random::uniform(n, &mut rng);
            let next = product.compose(&tree.to_matrix(true));
            prop_assert!(next.is_reflexive());
            prop_assert!(product.is_submatrix_of(&next));
            product = next;
        }
    }

    /// The broadcast witness, once present, never disappears.
    #[test]
    fn witnesses_are_stable(seed in 0u64..1000, n in 2usize..9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut state = BroadcastState::new(n);
        let mut witnessed = false;
        for _ in 0..4 * n {
            state.apply(&random::uniform(n, &mut rng));
            let has = state.broadcast_witness().is_some();
            prop_assert!(!witnessed || has, "witness vanished");
            witnessed = has;
        }
        prop_assert!(witnessed, "4n random rounds must broadcast");
    }

    /// Prüfer round-trips through the tree representation.
    #[test]
    fn pruefer_roundtrip(seed in 0u64..1000, n in 3usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = random::uniform(n, &mut rng);
        let seq = treecast::trees::pruefer::encode(&tree);
        let back = treecast::trees::pruefer::decode_rooted(&seq, tree.root()).unwrap();
        prop_assert_eq!(back.parents(), tree.parents());
    }

    /// Exact-k generators hold their contract for any k.
    #[test]
    fn exact_k_generators(seed in 0u64..500, n in 3usize..30, k_frac in 0.0f64..1.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = 1 + ((n - 2) as f64 * k_frac) as usize;
        let leaves: RootedTree = random::with_exact_leaves(n, k, &mut rng);
        prop_assert_eq!(leaves.leaf_count(), k);
        let inner = random::with_exact_inner(n, k, &mut rng);
        prop_assert_eq!(inner.inner_count(), k);
    }

    /// The sandwich formulas never cross and the upper bound is ~2.42 n.
    #[test]
    fn bound_formulas_consistent(n in 1u64..100_000) {
        prop_assert!(bounds::lower_bound(n) <= bounds::upper_bound(n));
        let ub = bounds::upper_bound(n) as f64;
        let target = (1.0 + 2f64.sqrt()) * n as f64;
        prop_assert!((ub - target).abs() <= 2.0);
    }
}
