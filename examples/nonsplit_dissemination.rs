//! The nonsplit-graph story behind the previous best bound: products of
//! `n − 1` rooted trees are nonsplit (CFN lemma), and nonsplit rounds
//! disseminate in `O(log log n)` (FNW) — together giving the old
//! `O(n log log n)` column of Figure 1.
//!
//! ```text
//! cargo run --release --example nonsplit_dissemination
//! ```

#![allow(
    clippy::expect_used,
    reason = "an example aborts loudly on an impossible state rather than threading errors through its narrative"
)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use treecast::core::bounds;
use treecast::nonsplit::{
    broadcast_time_nonsplit, cfn_product_is_nonsplit, random_tree_sequence, split_path_power,
    GreedyNonsplit, GridNonsplit, RandomNonsplit,
};

fn main() {
    let mut rng = StdRng::seed_from_u64(2022);

    println!("== CFN composition lemma ==");
    for n in [4usize, 8, 16, 32] {
        let trees = random_tree_sequence(n, n - 1, &mut rng);
        let nonsplit = cfn_product_is_nonsplit(&trees);
        let tight = !split_path_power(n).is_nonsplit();
        println!(
            "n = {n:>3}: product of n−1 random trees nonsplit: {nonsplit};  \
             n−2 path powers still split: {tight}"
        );
        assert!(nonsplit && tight);
    }

    println!("\n== FNW dissemination (rounds until broadcast) ==");
    println!(
        "{:>5} {:>16} {:>16} {:>12} {:>18}",
        "n", "random nonsplit", "greedy nonsplit", "sqrt-grid", "2·loglog n + 2 ref"
    );
    for n in [8usize, 32, 128, 512, 2048] {
        let t_rand = broadcast_time_nonsplit(n, &mut RandomNonsplit, 1_000, &mut rng)
            .expect("random nonsplit rounds broadcast");
        let t_greedy = broadcast_time_nonsplit(n, &mut GreedyNonsplit::default(), 1_000, &mut rng)
            .expect("greedy nonsplit rounds broadcast");
        let t_grid = broadcast_time_nonsplit(n, &mut GridNonsplit, 1_000, &mut rng)
            .expect("grid rounds broadcast");
        println!(
            "{:>5} {:>16} {:>16} {:>12} {:>18.1}",
            n,
            t_rand,
            t_greedy,
            t_grid,
            bounds::fnw_reference(n as u64, 2.0) / n as f64
        );
    }
    println!(
        "\nDissemination grows doubly-logarithmically — multiply by the n − 1\n\
         tree-rounds per nonsplit round and you recover the previous best\n\
         O(n log log n) upper bound that Theorem 3.1 improves to linear."
    );
}
