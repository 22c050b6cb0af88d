//! Pins the seeded uniform tree stream bit for bit. Every seeded
//! experiment, bench gate and differential suite replays this stream, so a
//! change to sampling or decoding must not move a single parent pointer.
//!
//! The fingerprints were recorded with the original edge-list decoder
//! (Prüfer edges, then a BFS over an undirected adjacency list); the
//! direct parent-array decoder must reproduce them.

use rand::rngs::StdRng;
use rand::SeedableRng;
use treecast_trees::random::{uniform, uniform_into};
use treecast_trees::RootedTree;

/// FNV-1a over the parent arrays of the first 64 trees drawn for `n` from
/// `StdRng::seed_from_u64(n)`, `None` folded in as `u64::MAX`.
fn fingerprint(n: usize, mut draw: impl FnMut(&mut StdRng) -> RootedTree) -> u64 {
    let mut rng = StdRng::seed_from_u64(n as u64);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..64 {
        let t = draw(&mut rng);
        for &p in t.parents() {
            h = (h ^ p.map_or(u64::MAX, |p| p as u64)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

const GOLDEN: [(usize, u64); 5] = [
    (1, 0x88ec_793d_100d_7fe5),
    (2, 0xbbe0_aaaf_5c08_0f91),
    (3, 0x78be_f5f2_5081_aa57),
    (257, 0x280c_0c3f_c211_81f3),
    (10_000, 0x194b_8afe_2f56_8cb7),
];

#[test]
fn uniform_stream_is_unchanged() {
    for (n, want) in GOLDEN {
        assert_eq!(
            fingerprint(n, |rng| uniform(n, rng)),
            want,
            "uniform stream moved at n = {n}"
        );
    }
}

#[test]
fn uniform_into_replays_the_same_stream() {
    for (n, want) in GOLDEN {
        // One tree reused across all 64 draws, starting from a different
        // size so the buffers must be resized, not just reused.
        let mut tree = treecast_trees::generators::star(n + 3);
        let got = fingerprint(n, |rng| {
            uniform_into(&mut tree, n, rng);
            tree.clone()
        });
        assert_eq!(got, want, "uniform_into stream moved at n = {n}");
    }
}
