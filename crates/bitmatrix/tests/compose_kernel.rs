//! Property tests for the `compose_into` kernel paths.
//!
//! Both explicit kernels (sparse, tiled) plus the auto selector
//! must agree with the naive O(n³) reference product across word-boundary
//! sizes (n ∈ {1, 63, 64, 65, 129}) and densities, and iterated
//! self-composition must reach an idempotent fixpoint.

use proptest::prelude::*;
use treecast_bitmatrix::strategies;
use treecast_bitmatrix::{BoolMatrix, ComposePath};

/// Word-boundary-straddling sizes: single word, word-1, word, word+1 and
/// a two-words-plus-one size.
const SIZES: [usize; 5] = [1, 63, 64, 65, 129];

/// Naive O(n³) reference product.
fn naive_compose(a: &BoolMatrix, b: &BoolMatrix) -> BoolMatrix {
    let n = a.n();
    let mut out = BoolMatrix::zeros(n);
    for x in 0..n {
        for y in 0..n {
            if (0..n).any(|z| a.get(x, z) && b.get(z, y)) {
                out.set(x, y, true);
            }
        }
    }
    out
}

/// A deterministic matrix with roughly `density_pct`% of entries set,
/// derived from a proptest-sampled seed via xorshift.
fn seeded_matrix(n: usize, seed: u64, density_pct: u64) -> BoolMatrix {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut m = BoolMatrix::zeros(n);
    for x in 0..n {
        for y in 0..n {
            if next() % 100 < density_pct {
                m.set(x, y, true);
            }
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All kernel paths equal the naive reference on every boundary size.
    #[test]
    fn kernels_match_naive_reference(seed in proptest::num::u64::ANY, density in 0u64..=100) {
        for n in SIZES {
            let a = seeded_matrix(n, seed, density);
            let b = seeded_matrix(n, seed.rotate_left(17) ^ 0xD1CE, density);
            let expected = naive_compose(&a, &b);
            for path in [ComposePath::Auto, ComposePath::Sparse, ComposePath::Tiled] {
                // Start from stale garbage to prove the kernel overwrites.
                let mut out = BoolMatrix::ones(n);
                a.compose_into_with(&b, &mut out, path);
                out.debug_validate();
                prop_assert!(
                    out == expected,
                    "kernel {:?} diverged at n = {} (density {}%)",
                    path,
                    n,
                    density
                );
            }
        }
    }

    /// The sparse fast path on genuinely tree-shaped left operands (a
    /// self-looped path has 2n − 1 ≤ 2n edges, so Auto takes it) matches
    /// the reference.
    #[test]
    fn sparse_regime_matches_reference(seed in proptest::num::u64::ANY) {
        for n in SIZES {
            let mut path_round = BoolMatrix::identity(n);
            for y in 1..n {
                path_round.set(y - 1, y, true);
            }
            let b = seeded_matrix(n, seed, 20);
            let expected = naive_compose(&path_round, &b);
            let mut out = BoolMatrix::zeros(n);
            path_round.compose_into(&b, &mut out);
            out.debug_validate();
            prop_assert!(out == expected, "sparse regime diverged at n = {}", n);
        }
    }

    /// Iterated self-composition of a reflexive matrix reaches a fixpoint
    /// with `P ∘ P = P` (the transitive closure; all-ones once the graph
    /// is strongly connected), on every kernel path.
    #[test]
    fn reflexive_self_composition_reaches_idempotent_fixpoint(
        m in strategies::reflexive_matrix(65),
    ) {
        let n = m.n();
        let mut p = m.clone();
        let mut next = BoolMatrix::zeros(n);
        // Reflexivity makes squaring monotone, so the closure needs at
        // most ⌈log₂ n⌉ squarings; 8 covers n = 65 with slack.
        for _ in 0..8 {
            p.compose_into(&p, &mut next);
            if next == p {
                break;
            }
            std::mem::swap(&mut p, &mut next);
        }
        for path in [ComposePath::Sparse, ComposePath::Tiled] {
            let mut square = BoolMatrix::zeros(n);
            p.compose_into_with(&p, &mut square, path);
            prop_assert!(square == p, "fixpoint not idempotent on {:?}", path);
        }
        // A reflexive fixpoint with a full row is all-ones on that row's
        // strongly-reachable set; when some row is full, composing further
        // can never unset it.
        if p.is_all_ones() {
            let mut again = BoolMatrix::zeros(n);
            p.compose_into(&p, &mut again);
            prop_assert!(again.is_all_ones());
        }
    }
}
