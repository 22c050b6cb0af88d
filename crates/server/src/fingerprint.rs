//! Tree-sequence fingerprints: splitmix64 chaining over per-tree hashes.
//!
//! The cache keys every prefix product by `(fingerprint, round)`, where
//! the fingerprint of a prefix `A₁, …, A_t` is a splitmix64 chain over
//! the trees' structural hashes — the same finalizer family as the
//! solver's state table, chained so
//! that prefixes sharing a stem share their fingerprints up to the first
//! differing round:
//!
//! ```text
//! fp₀ = SEED,    fp_t = splitmix64(fp_{t-1} ^ tree_hash(A_t))
//! ```
//!
//! [`tree_hash`] reads every parent, which makes it the hot part of a
//! warm request, so it splits the parent array over eight
//! independent multiply-rotate lanes (lane `i` takes entries `i`,
//! `i + 8`, …) that the CPU overlaps, then folds `n`, the root and
//! the lanes with splitmix64. Each lane step is a bijection in both the
//! lane and the entry, so any single parent edit changes the hash. The
//! constants are fixed: fingerprints are the same on every host.
//!
//! Two *different* sequences can collide only by a 64-bit hash accident
//! (≈ 2⁻⁶⁴ per pair); the round component of the key is exact, so a
//! collision can never confuse prefixes of different lengths — only two
//! same-length prefixes with colliding chains (the residual risk every
//! fingerprint cache carries).

use treecast_core::splitmix64;
use treecast_trees::RootedTree;

/// The chain's initial value — an arbitrary odd constant, fixed so
/// fingerprints are stable across runs and hosts.
pub const SEED: u64 = 0x51ED_2702_7F1E_CA5F;

/// Independent hash lanes over the parent array.
const LANES: usize = 8;

/// Odd multiplier of the lane step (the 64-bit Fx constant).
const LANE_MUL: u64 = 0x517C_C1B7_2722_0A95;

/// One lane step: xor the entry in, multiply by an odd constant, rotate
/// the high bits back down. Bijective in `lane` and in `token`.
#[inline]
fn lane_step(lane: u64, token: u64) -> u64 {
    (lane ^ token).wrapping_mul(LANE_MUL).rotate_left(29)
}

/// Structural hash of one round tree: the parent array in eight
/// independent lanes, folded with `n` and the root by splitmix64. Equal
/// trees hash equal, and trees one parent apart never do.
#[must_use]
pub fn tree_hash(tree: &RootedTree) -> u64 {
    // +1 keeps `Some(0)` distinct from `None` (the root slot).
    let token = |parent: &Option<usize>| parent.map_or(0, |p| p as u64 + 1);
    // Distinct lane seeds: equal entries in different lanes stay apart.
    let mut lanes: [u64; LANES] = std::array::from_fn(|i| splitmix64(SEED ^ i as u64));
    let mut chunks = tree.parents().chunks_exact(LANES);
    for chunk in &mut chunks {
        for (lane, parent) in lanes.iter_mut().zip(chunk) {
            *lane = lane_step(*lane, token(parent));
        }
    }
    for (lane, parent) in lanes.iter_mut().zip(chunks.remainder()) {
        *lane = lane_step(*lane, token(parent));
    }
    let head = splitmix64(splitmix64(tree.n() as u64 ^ SEED) ^ tree.root() as u64);
    lanes.iter().fold(head, |h, &lane| splitmix64(h ^ lane))
}

/// Extends a prefix fingerprint by one round.
#[inline]
#[must_use]
pub fn chain(prefix: u64, tree_hash: u64) -> u64 {
    splitmix64(prefix ^ tree_hash)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;
    use treecast_trees::{generators, random};

    /// The fingerprint of the full prefix `trees` (the provider chains
    /// incrementally).
    fn sequence_fingerprint(trees: &[RootedTree]) -> u64 {
        trees
            .iter()
            .fold(SEED, |fp, tree| chain(fp, tree_hash(tree)))
    }

    /// Sizes around the lane width and the served size.
    const SIZES: [usize; 7] = [1, 2, 7, 8, 9, 1023, 1024];

    /// The valid trees one parent edit away from `tree`: every new parent
    /// for `n <= 9`, and a few per node (the root first) above that.
    fn single_parent_edits(tree: &RootedTree) -> Vec<(usize, usize, RootedTree)> {
        let n = tree.n();
        let mut edits = Vec::new();
        for y in (0..n).filter(|&y| y != tree.root()) {
            let mut candidates: Vec<usize> = if n <= 9 {
                (0..n).collect()
            } else {
                vec![tree.root(), (y + 1) % n, (y * 7 + 3) % n]
            };
            candidates.sort_unstable();
            candidates.dedup();
            for z in candidates {
                if z == y || Some(z) == tree.parent(y) {
                    continue;
                }
                let mut parents = tree.parents().to_vec();
                parents[y] = Some(z);
                if let Ok(edited) = RootedTree::from_parents(parents) {
                    edits.push((y, z, edited));
                }
            }
        }
        edits
    }

    #[test]
    fn every_single_parent_edit_and_root_move_changes_the_hash() {
        let mut rng = StdRng::seed_from_u64(0x7EE5);
        for n in SIZES {
            let tree = random::uniform(n, &mut rng);
            let base = tree_hash(&tree);
            let edits = single_parent_edits(&tree);
            assert!(n <= 2 || edits.len() >= n - 1, "n = {n}: too few edits");
            let mut seen = HashSet::from([base]);
            for (y, z, edited) in &edits {
                assert!(
                    seen.insert(tree_hash(edited)),
                    "n = {n}: parent({y}) := {z} collides"
                );
            }
            for r in (0..n).filter(|&r| r != tree.root()) {
                assert_ne!(tree_hash(&tree.rerooted(r)), base, "n = {n}: root {r}");
            }
        }
    }

    #[test]
    fn hash_values_are_pinned() {
        // Literal values: a changed constant, lane count or fold order
        // (or a host that hashes differently) fails here.
        assert_eq!(tree_hash(&generators::path(1024)), 0x304D_C07C_285D_2205);
        assert_eq!(
            tree_hash(&generators::star_with_center(9, 4)),
            0xAEFF_1BAB_D13B_635F
        );
    }

    #[test]
    fn equal_sequences_share_fingerprints() {
        let a = vec![generators::path(6), generators::star(6)];
        let b = vec![generators::path(6), generators::star(6)];
        assert_eq!(sequence_fingerprint(&a), sequence_fingerprint(&b));
    }

    #[test]
    fn any_tree_change_reroutes_the_chain() {
        let base = vec![generators::path(6), generators::star(6)];
        let other_tree = vec![generators::path(6), generators::star_with_center(6, 1)];
        let other_order = vec![generators::star(6), generators::path(6)];
        let shorter = vec![generators::path(6)];
        let fp = sequence_fingerprint(&base);
        assert_ne!(fp, sequence_fingerprint(&other_tree));
        assert_ne!(fp, sequence_fingerprint(&other_order));
        assert_ne!(fp, sequence_fingerprint(&shorter));
    }

    #[test]
    fn shared_stems_share_prefix_fingerprints() {
        // The chaining property the cache's cross-sequence sharing rides:
        // sequences agreeing on their first t trees agree on fp_t.
        let stem = vec![generators::path(5), generators::star(5)];
        let mut a = stem.clone();
        a.push(generators::path(5));
        let mut b = stem.clone();
        b.push(generators::star(5));
        assert_eq!(sequence_fingerprint(&a[..2]), sequence_fingerprint(&b[..2]));
        assert_ne!(sequence_fingerprint(&a), sequence_fingerprint(&b));
    }

    #[test]
    fn root_and_size_are_part_of_the_hash() {
        assert_ne!(
            tree_hash(&generators::star_with_center(6, 0)),
            tree_hash(&generators::star_with_center(6, 1))
        );
        // Same shape family, growing n: the parent arrays are prefixes of
        // each other, so only the size tells them apart.
        for family in [generators::path, generators::star] {
            let hashes: HashSet<u64> = SIZES.iter().map(|&n| tree_hash(&family(n))).collect();
            assert_eq!(hashes.len(), SIZES.len());
        }
    }
}
