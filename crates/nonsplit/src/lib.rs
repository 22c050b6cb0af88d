//! Nonsplit graphs: the machinery behind the *previous best* upper bound.
//!
//! A directed graph is **nonsplit** when every pair of nodes has a common
//! in-neighbor. Figure 1's `O(n log log n)` column combines two cited
//! results that this crate makes executable:
//!
//! * **\[CFN15\] composition lemma** — the product of any `n − 1` rooted
//!   trees (with self-loops) is nonsplit: [`product_of`] +
//!   [`cfn_product_is_nonsplit`], with the tightness witness
//!   ([`split_path_power`]) showing `n − 2` does not suffice.
//! * **\[FNW20\] dissemination** — sequences of nonsplit graphs broadcast in
//!   `O(log log n)` rounds: [`broadcast_time_nonsplit`] measured against
//!   [`treecast_core::bounds::fnw_reference`].
//!
//! # Examples
//!
//! ```
//! use rand::SeedableRng;
//! use treecast_nonsplit::{cfn_product_is_nonsplit, random_tree_sequence};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let trees = random_tree_sequence(8, 7, &mut rng); // n − 1 trees
//! assert!(cfn_product_is_nonsplit(&trees));
//! ```

use rand::Rng;

use treecast_bitmatrix::BoolMatrix;
use treecast_core::workload::{full_state_progress, tracked_progress, SourceSet};
use treecast_core::{Broadcast, BroadcastState, Gossip, Workload};
use treecast_trees::{random, RootedTree};

/// The product `T₁∘…∘T_k` of a tree sequence, self-loops included
/// (Definition 2.1 iterated), stepped as one [`BroadcastState`] round per
/// tree.
///
/// # Panics
///
/// Panics if `trees` is empty or sizes disagree.
pub fn product_of(trees: &[RootedTree]) -> BoolMatrix {
    assert!(
        !trees.is_empty(),
        "product of an empty sequence is undefined"
    );
    let mut state = BroadcastState::new(trees[0].n());
    for t in trees {
        state.apply(t);
    }
    state.product_matrix()
}

/// The Charron-Bost–Függer–Nowak lemma, executable: is the product of this
/// tree sequence nonsplit? (True whenever `trees.len() ≥ n − 1`.)
pub fn cfn_product_is_nonsplit(trees: &[RootedTree]) -> bool {
    product_of(trees).is_nonsplit()
}

/// A sequence of `k` uniform random rooted trees on `n` nodes.
pub fn random_tree_sequence<R: Rng + ?Sized>(n: usize, k: usize, rng: &mut R) -> Vec<RootedTree> {
    (0..k).map(|_| random::uniform(n, rng)).collect()
}

/// The tightness witness for the CFN lemma: the product of `n − 2` copies
/// of the path is **split** (nodes `0` and `n − 1` share no in-neighbor),
/// so `n − 1` in the lemma cannot be improved.
///
/// Returns the split product matrix.
///
/// # Panics
///
/// Panics if `n < 3`.
///
/// # Examples
///
/// ```
/// use treecast_nonsplit::split_path_power;
/// assert!(!split_path_power(6).is_nonsplit());
/// ```
pub fn split_path_power(n: usize) -> BoolMatrix {
    assert!(n >= 3, "need at least 3 nodes for a split power");
    let path = treecast_trees::generators::path(n);
    let seq: Vec<RootedTree> = vec![path; n - 2];
    let product = product_of(&seq);
    debug_assert!(!product.is_nonsplit());
    product
}

/// Generators for random and adversarial nonsplit round graphs.
pub mod generators {
    use super::*;

    /// A *sparse* nonsplit graph: every unordered pair of nodes is
    /// assigned a random common in-neighbor, and nothing else (apart from
    /// self-loops). In-neighbors are spread to keep rows slim — the
    /// adversarially interesting end of the nonsplit spectrum.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn pairwise_min<R: Rng + ?Sized>(n: usize, rng: &mut R) -> BoolMatrix {
        assert!(n > 0, "graph needs at least one node");
        let mut m = BoolMatrix::identity(n);
        for a in 0..n {
            for b in (a + 1)..n {
                let z = rng.gen_range(0..n);
                m.set(z, a, true);
                m.set(z, b, true);
            }
        }
        debug_assert!(m.is_nonsplit());
        m
    }

    /// The nonsplit graph arising as a product of `n − 1` random rooted
    /// trees — the CFN construction itself.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn tree_product<R: Rng + ?Sized>(n: usize, rng: &mut R) -> BoolMatrix {
        if n == 1 {
            return BoolMatrix::identity(1);
        }
        product_of(&random_tree_sequence(n, n - 1, rng))
    }

    /// The deterministic **piecewise** `c`-nonsplit graph: `c + 1` hubs,
    /// hub `i` pointing at everything outside the residue class
    /// `P_i = {y : y ≡ i (mod c + 1)}`, everyone else carrying only a
    /// self-loop.
    ///
    /// Any `c` nodes meet at most `c` of the `c + 1` classes, so some hub
    /// covers them all — the graph is `c`-nonsplit
    /// ([`BoolMatrix::is_c_nonsplit`]). It is *tightly* so: for
    /// `n ≥ 2(c + 1)` a transversal `(c + 1)`-subset avoiding the hub
    /// nodes hits every class and shares no in-neighbor. This makes the
    /// family the natural knob for the companion paper's "tighter
    /// nonsplit" adversaries: raising `c` hands the processes strictly
    /// more shared coverage per round, and measured dissemination times
    /// fall accordingly (experiment `variants`).
    ///
    /// When `c + 1 > n` the construction degenerates to a single full hub
    /// (which is `c`-nonsplit for every `c`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `c < 2`.
    ///
    /// # Examples
    ///
    /// ```
    /// use treecast_nonsplit::generators::piecewise;
    /// let g = piecewise(12, 3);
    /// assert!(g.is_c_nonsplit(3));
    /// assert!(!g.is_c_nonsplit(4)); // tight at n ≥ 2(c + 1)
    /// ```
    pub fn piecewise(n: usize, c: usize) -> BoolMatrix {
        assert!(n > 0, "graph needs at least one node");
        assert!(c >= 2, "c-nonsplit needs c ≥ 2 (c = 2 is plain nonsplit)");
        let mut m = BoolMatrix::identity(n);
        let hubs = c + 1;
        if hubs > n {
            for y in 0..n {
                m.set(0, y, true);
            }
            return m;
        }
        for i in 0..hubs {
            for y in 0..n {
                if y % hubs != i {
                    m.set(i, y, true);
                }
            }
        }
        debug_assert!(m.is_c_nonsplit(c));
        m
    }

    /// The deterministic **grid** nonsplit graph — the sparsest classic
    /// construction, with out-degrees `Θ(√n)`.
    ///
    /// Nodes are laid on a `⌈√n⌉ × ⌈√n⌉` grid (last row possibly partial);
    /// node `z` points to every node sharing its row or column. Any two
    /// nodes `y₁, y₂` have the "corner" `(row(y₁), col(y₂))` (or a same-row
    /// fallback) as a common in-neighbor, so the graph is nonsplit while
    /// keeping every reach set near the `Θ(√n)` information-theoretic
    /// minimum — the adversarially *slowest* nonsplit round, which is what
    /// makes the FNW `log log n` growth visible.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use treecast_nonsplit::generators::grid;
    /// let g = grid(16);
    /// assert!(g.is_nonsplit());
    /// assert!(g.row_weights().iter().all(|&w| w <= 8)); // 2·√16 − 1 + loop
    /// ```
    pub fn grid(n: usize) -> BoolMatrix {
        assert!(n > 0, "graph needs at least one node");
        #[expect(clippy::expect_used, reason = "(1..) always reaches s with s*s >= n.")]
        let side = (1..).find(|s| s * s >= n).expect("finite n");
        let mut m = BoolMatrix::identity(n);
        for z in 0..n {
            let (zr, zc) = (z / side, z % side);
            for y in 0..n {
                let (yr, yc) = (y / side, y % side);
                if yr == zr || yc == zc {
                    m.set(z, y, true);
                }
            }
        }
        debug_assert!(m.is_nonsplit());
        m
    }
}

/// Plays the deterministic sparse [`generators::grid`] graph every round —
/// the slowest nonsplit adversary in the crate.
#[derive(Debug, Clone, Copy, Default)]
pub struct GridNonsplit;

impl MatrixSource for GridNonsplit {
    fn next_matrix<R: Rng + ?Sized>(&mut self, state: &BroadcastState, _rng: &mut R) -> BoolMatrix {
        generators::grid(state.n())
    }
}

/// Produces the round-`t` nonsplit matrix given the current state.
pub trait MatrixSource {
    /// The next round's (nonsplit) graph.
    fn next_matrix<R: Rng + ?Sized>(&mut self, state: &BroadcastState, rng: &mut R) -> BoolMatrix;
}

/// Plays the piecewise `c`-nonsplit graph every round, with the node
/// roles reshuffled by a fresh random relabeling — the "tighter nonsplit"
/// adversary family of the companion paper (arXiv:2211.10151): every
/// `c`-subset of processes is served a common in-neighbor each round, and
/// larger `c` means strictly faster dissemination.
#[derive(Debug, Clone, Copy)]
pub struct PiecewiseNonsplit {
    /// Subset size every round graph must cover (`c ≥ 2`; `c = 2` is the
    /// classic nonsplit constraint).
    pub c: usize,
}

impl PiecewiseNonsplit {
    /// A `c`-nonsplit adversary.
    ///
    /// # Panics
    ///
    /// Panics if `c < 2`.
    pub fn new(c: usize) -> Self {
        assert!(c >= 2, "c-nonsplit needs c ≥ 2");
        PiecewiseNonsplit { c }
    }
}

impl MatrixSource for PiecewiseNonsplit {
    fn next_matrix<R: Rng + ?Sized>(&mut self, state: &BroadcastState, rng: &mut R) -> BoolMatrix {
        let n = state.n();
        let base = generators::piecewise(n, self.c);
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        base.permute(&perm)
    }
}

/// Plays a fresh sparse random nonsplit graph every round.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomNonsplit;

impl MatrixSource for RandomNonsplit {
    fn next_matrix<R: Rng + ?Sized>(&mut self, state: &BroadcastState, rng: &mut R) -> BoolMatrix {
        generators::pairwise_min(state.n(), rng)
    }
}

/// Greedy delaying adversary over nonsplit rounds: samples `pool` sparse
/// candidates and plays the one minimizing the largest reach set — the
/// nonsplit analogue of the tree adversaries' objectives.
#[derive(Debug, Clone, Copy)]
pub struct GreedyNonsplit {
    /// Candidates sampled per round.
    pub pool: usize,
}

impl Default for GreedyNonsplit {
    fn default() -> Self {
        GreedyNonsplit { pool: 8 }
    }
}

impl MatrixSource for GreedyNonsplit {
    #[expect(
        clippy::expect_used,
        reason = "the loop above ran over a non-empty pool, so `best` was set on its first iteration."
    )]
    fn next_matrix<R: Rng + ?Sized>(&mut self, state: &BroadcastState, rng: &mut R) -> BoolMatrix {
        let n = state.n();
        let mut best: Option<(usize, BoolMatrix)> = None;
        // One probe state reused across the pool: `clone_from` recycles its
        // flat buffers instead of reallocating per candidate.
        let mut after = state.clone();
        for _ in 0..self.pool.max(1) {
            let candidate = generators::pairwise_min(n, rng);
            after.clone_from(state);
            after.apply_matrix(&candidate);
            let max_reach = after.reach_weights().into_iter().max().unwrap_or(0);
            if best.as_ref().map(|(b, _)| max_reach < *b).unwrap_or(true) {
                best = Some((max_reach, candidate));
            }
        }
        best.expect("pool ≥ 1").1
    }
}

/// Rounds until `workload` completes under nonsplit round graphs drawn
/// from `source`, or `None` if `cap` rounds pass first.
///
/// This is the dissemination measurement generalized over the
/// [`Workload`] lattice: broadcast ([`treecast_core::Broadcast`]),
/// `k`-broadcast, gossip, and token-subset workloads all run through the
/// same loop, which steps one [`BroadcastState`] through
/// [`BroadcastState::apply_matrix`] (nonsplit round graphs are not
/// forests). Token-subset workloads count only their sources' columns
/// ([`BroadcastState::disseminated_among`]).
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use treecast_core::{Gossip, KBroadcast};
/// use treecast_nonsplit::{workload_time_nonsplit, RandomNonsplit};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let k2 = workload_time_nonsplit(32, &KBroadcast::new(2), &mut RandomNonsplit, 200, &mut rng)
///     .unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let gossip =
///     workload_time_nonsplit(32, &Gossip, &mut RandomNonsplit, 200, &mut rng).unwrap();
/// assert!(k2 <= gossip, "the workload lattice orders completion times");
/// ```
pub fn workload_time_nonsplit<W, S, R>(
    n: usize,
    workload: &W,
    source: &mut S,
    cap: u64,
    rng: &mut R,
) -> Option<u64>
where
    W: Workload + ?Sized,
    S: MatrixSource,
    R: Rng + ?Sized,
{
    let mut state = BroadcastState::new(n);
    let sources = match workload.sources(n) {
        SourceSet::All => None,
        SourceSet::Nodes(sources) => Some(sources),
    };
    loop {
        let progress = match &sources {
            Some(sources) => tracked_progress(&state, sources),
            None => full_state_progress(&state),
        };
        if workload.is_complete(&progress) {
            return Some(progress.round);
        }
        if state.round() >= cap {
            return None;
        }
        let m = source.next_matrix(&state, rng);
        debug_assert!(m.is_nonsplit(), "source must produce nonsplit rounds");
        state.apply_matrix(&m);
    }
}

/// Rounds until some node has reached everyone under a nonsplit-round
/// source, or `None` if `cap` rounds pass first.
///
/// The Függer–Nowak–Winkler bound predicts `O(log log n)`. Thin wrapper
/// over [`workload_time_nonsplit`] with the [`Broadcast`] workload.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use treecast_nonsplit::{broadcast_time_nonsplit, RandomNonsplit};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let t = broadcast_time_nonsplit(64, &mut RandomNonsplit, 100, &mut rng).unwrap();
/// assert!(t <= 16, "nonsplit dissemination is doubly logarithmic, got {t}");
/// ```
pub fn broadcast_time_nonsplit<S: MatrixSource, R: Rng + ?Sized>(
    n: usize,
    source: &mut S,
    cap: u64,
    rng: &mut R,
) -> Option<u64> {
    workload_time_nonsplit(n, &Broadcast, source, cap, rng)
}

/// Rounds until everyone has heard everyone (gossip) under nonsplit
/// rounds, or `None` at `cap`. Thin wrapper over
/// [`workload_time_nonsplit`] with the [`Gossip`] workload.
pub fn gossip_time_nonsplit<S: MatrixSource, R: Rng + ?Sized>(
    n: usize,
    source: &mut S,
    cap: u64,
    rng: &mut R,
) -> Option<u64> {
    workload_time_nonsplit(n, &Gossip, source, cap, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use treecast_trees::generators as treegen;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xBEEF)
    }

    #[test]
    fn cfn_lemma_holds_for_random_sequences() {
        let mut rng = rng();
        for n in [2usize, 3, 5, 8, 12, 20] {
            for _ in 0..10 {
                let trees = random_tree_sequence(n, n.saturating_sub(1).max(1), &mut rng);
                assert!(
                    cfn_product_is_nonsplit(&trees),
                    "CFN lemma violated at n = {n}"
                );
            }
        }
    }

    #[test]
    fn cfn_lemma_is_tight() {
        for n in [3usize, 5, 9, 17] {
            assert!(
                !split_path_power(n).is_nonsplit(),
                "n − 2 path powers must stay split at n = {n}"
            );
        }
    }

    #[test]
    fn product_of_structured_families_nonsplit() {
        // n − 1 products of mixed deterministic families.
        let n = 7;
        let trees: Vec<RootedTree> = vec![
            treegen::path(n),
            treegen::star(n),
            treegen::broom(n, 3),
            treegen::caterpillar(n, 2),
            treegen::spider(n, 2),
            treegen::complete_binary(n),
        ];
        assert_eq!(trees.len(), n - 1);
        assert!(cfn_product_is_nonsplit(&trees));
    }

    #[test]
    fn generators_produce_nonsplit() {
        let mut rng = rng();
        for n in [1usize, 2, 5, 16, 33] {
            assert!(generators::pairwise_min(n, &mut rng).is_nonsplit());
            assert!(generators::tree_product(n, &mut rng).is_nonsplit());
        }
    }

    #[test]
    fn grid_is_nonsplit_even_when_truncated() {
        // Perfect squares and awkward sizes alike.
        for n in [1usize, 2, 3, 5, 7, 10, 12, 16, 17, 24, 26, 50, 100, 101] {
            let g = generators::grid(n);
            assert!(g.is_nonsplit(), "grid({n}) split");
        }
    }

    #[test]
    fn grid_rows_are_sqrt_thin() {
        let n = 100;
        let g = generators::grid(n);
        let max_row = g.row_weights().into_iter().max().unwrap();
        assert!(max_row <= 19, "grid rows must be Θ(√n), got {max_row}");
    }

    #[test]
    fn grid_dissemination_shows_loglog_growth() {
        let mut rng = rng();
        let mut prev = 0;
        for n in [16usize, 256, 4096] {
            let t = broadcast_time_nonsplit(n, &mut GridNonsplit, 100, &mut rng)
                .expect("grid rounds broadcast");
            assert!(t >= prev, "dissemination must not shrink with n");
            assert!(t <= 10, "n = {n}: grid dissemination {t} too slow");
            prev = t;
        }
    }

    #[test]
    fn reflexive_nonsplit_products_stay_nonsplit() {
        let mut rng = rng();
        let n = 9;
        let a = generators::pairwise_min(n, &mut rng);
        let b = generators::pairwise_min(n, &mut rng);
        assert!(a.compose(&b).is_nonsplit());
    }

    #[test]
    fn dissemination_is_fast() {
        let mut rng = rng();
        for n in [8usize, 32, 128] {
            let t = broadcast_time_nonsplit(n, &mut RandomNonsplit, 200, &mut rng)
                .expect("random nonsplit rounds must broadcast quickly");
            // Extremely loose double-log sanity envelope.
            assert!(t <= 24, "n = {n}: took {t} rounds");
        }
    }

    #[test]
    fn greedy_delays_at_least_as_long_as_random() {
        let n = 32;
        let trials = 5;
        let mut rng = rng();
        let mut total_rand = 0;
        let mut total_greedy = 0;
        for _ in 0..trials {
            total_rand += broadcast_time_nonsplit(n, &mut RandomNonsplit, 500, &mut rng).unwrap();
            total_greedy +=
                broadcast_time_nonsplit(n, &mut GreedyNonsplit::default(), 500, &mut rng).unwrap();
        }
        assert!(
            total_greedy + trials >= total_rand,
            "greedy ({total_greedy}) should not be much faster than random ({total_rand})"
        );
    }

    #[test]
    fn gossip_takes_at_least_broadcast() {
        let mut rng = rng();
        let n = 16;
        let g = gossip_time_nonsplit(n, &mut RandomNonsplit, 500, &mut rng).unwrap();
        let mut rng2 = StdRng::seed_from_u64(0xBEEF);
        let b = broadcast_time_nonsplit(n, &mut RandomNonsplit, 500, &mut rng2).unwrap();
        assert!(g >= b, "gossip {g} earlier than broadcast {b} on same seed");
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_product_panics() {
        product_of(&[]);
    }

    #[test]
    fn product_parity_regression() {
        // Odd and even sequence lengths of identical trees against a plain
        // allocating compose chain.
        let n = 6;
        for tree in [treegen::path(n), treegen::broom(n, 3), treegen::star(n)] {
            for len in 1..=2 * n {
                let seq: Vec<RootedTree> = vec![tree.clone(); len];
                let mut reference = tree.to_matrix(true);
                for t in &seq[1..] {
                    reference = reference.compose(&t.to_matrix(true));
                }
                assert_eq!(
                    product_of(&seq),
                    reference,
                    "len = {len} ({}) product diverged",
                    if len % 2 == 0 { "even" } else { "odd" }
                );
            }
        }
    }

    #[test]
    fn piecewise_is_tightly_c_nonsplit() {
        for c in 2..=4usize {
            for n in [2 * (c + 1), 3 * (c + 1) + 1, 20] {
                let g = generators::piecewise(n, c);
                assert!(g.is_c_nonsplit(c), "piecewise({n}, {c}) not {c}-nonsplit");
                assert!(
                    !g.is_c_nonsplit(c + 1),
                    "piecewise({n}, {c}) unexpectedly {}-nonsplit",
                    c + 1
                );
            }
        }
        // Degenerate small-n case: one full hub serves every subset size.
        let tiny = generators::piecewise(3, 4);
        assert!(tiny.is_c_nonsplit(3));
    }

    #[test]
    fn piecewise_source_produces_c_nonsplit_rounds() {
        let mut rng = rng();
        let state = BroadcastState::new(14);
        for c in [2usize, 3, 4] {
            let mut src = PiecewiseNonsplit::new(c);
            for _ in 0..5 {
                let m = src.next_matrix(&state, &mut rng);
                assert!(m.is_c_nonsplit(c), "c = {c}");
            }
        }
    }

    #[test]
    fn tighter_nonsplit_is_never_slower() {
        // Raising c can only help the processes: measure the piecewise
        // family end to end and require a (weakly) falling gossip time.
        let n = 24;
        let trials = 4;
        let mut times = Vec::new();
        for c in [2usize, 4, 8] {
            let mut total = 0u64;
            for seed in 0..trials {
                let mut rng = StdRng::seed_from_u64(seed);
                total +=
                    gossip_time_nonsplit(n, &mut PiecewiseNonsplit::new(c), 500, &mut rng).unwrap();
            }
            times.push(total);
        }
        assert!(
            times[0] + trials >= times[2],
            "c = 8 ({}) should not be slower than c = 2 ({}) beyond noise",
            times[2],
            times[0]
        );
    }

    #[test]
    fn workload_lattice_orders_completion_times() {
        use treecast_core::KBroadcast;
        let n = 16;
        let times: Vec<u64> = (1..=n)
            .step_by(5)
            .map(|k| {
                let mut rng = StdRng::seed_from_u64(7);
                workload_time_nonsplit(n, &KBroadcast::new(k), &mut RandomNonsplit, 500, &mut rng)
                    .expect("random nonsplit completes k-broadcast")
            })
            .collect();
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "k-broadcast times must be monotone in k: {times:?}"
        );
        let mut rng = StdRng::seed_from_u64(7);
        let gossip = gossip_time_nonsplit(n, &mut RandomNonsplit, 500, &mut rng).unwrap();
        assert_eq!(*times.last().unwrap(), gossip);
    }

    #[test]
    fn tracked_subset_agrees_with_full_state_under_nonsplit_rounds() {
        use treecast_core::KSourceBroadcast;
        let n = 12;
        let workload = KSourceBroadcast::evenly_spread(n, 3);
        let mut rng = StdRng::seed_from_u64(99);
        let tracked =
            workload_time_nonsplit(n, &workload, &mut RandomNonsplit, 500, &mut rng).unwrap();
        // The same seed's gossip run upper-bounds the 3-source run.
        let mut rng = StdRng::seed_from_u64(99);
        let gossip = gossip_time_nonsplit(n, &mut RandomNonsplit, 500, &mut rng).unwrap();
        assert!(tracked <= gossip, "3 tokens ({tracked}) vs all ({gossip})");
    }

    /// A k-source run timed by a separately stepped holder-row state: the
    /// source reads the full state, but completion comes from a
    /// `TrackedTokens` through `apply_matrix`, whose rows must equal the
    /// full state's source columns after every round.
    fn k_source_time_by_holder_rows<S: MatrixSource>(
        n: usize,
        workload: &treecast_core::KSourceBroadcast,
        source: &mut S,
        cap: u64,
        rng: &mut StdRng,
    ) -> Option<u64> {
        let mut state = BroadcastState::new(n);
        let mut oracle = treecast_core::TrackedTokens::new(n, workload.sources());
        loop {
            for (i, &s) in workload.sources().iter().enumerate() {
                assert_eq!(oracle.holders(i).to_bitset(), state.reach_set(s));
            }
            let progress = oracle.progress();
            if workload.is_complete(&progress) {
                return Some(progress.round);
            }
            if state.round() >= cap {
                return None;
            }
            let m = source.next_matrix(&state, rng);
            state.apply_matrix(&m);
            oracle.apply_matrix(&m);
        }
    }

    #[test]
    fn k_source_time_matches_the_holder_row_oracle() {
        fn check<S: MatrixSource>(make: impl Fn() -> S, name: &str) {
            for n in [5usize, 12, 64, 65] {
                for k in [1usize, 3] {
                    let workload = treecast_core::KSourceBroadcast::evenly_spread(n, k);
                    for seed in 0..3 {
                        let mut rng = StdRng::seed_from_u64(seed);
                        let got = workload_time_nonsplit(n, &workload, &mut make(), 200, &mut rng);
                        let mut rng = StdRng::seed_from_u64(seed);
                        let want =
                            k_source_time_by_holder_rows(n, &workload, &mut make(), 200, &mut rng);
                        assert_eq!(got, want, "{name}, n = {n}, k = {k}, seed {seed}");
                    }
                }
            }
        }
        check(|| RandomNonsplit, "random");
        check(|| PiecewiseNonsplit::new(3), "piecewise(c=3)");
        check(|| GreedyNonsplit { pool: 3 }, "greedy(pool=3)");
    }
}
