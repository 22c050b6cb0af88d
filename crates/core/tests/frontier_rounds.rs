//! Pins the frontier engine's node-major rounds to the per-token,
//! per-candidate scan they replace.
//!
//! `FrontierState` keeps one row of token bits per node. A
//! `RoundDelta::All` round is one double-buffered pass over the rows; a
//! quiet round resolves the children of one node frontier, the delta and
//! one deferred list. `Reference` below is the algorithm it replaced, over
//! one `BitSet` holder row per token: every round it scans each token's
//! own candidates (all `n` nodes in a whole-tree round) and commits after
//! the scan. After every round both must agree on every token's holder
//! set, the disseminated count, and (as sets) the node frontier and
//! deferred list against the union of the per-token ones — through
//! offline masks in whole-tree and quiet rounds, token losses, a
//! re-rooting `Changed` round and the `Unchanged` rounds that then run to
//! quiescence with everyone online. The whole-tree rounds
//! also pin that the round tree's lazily built children index is never
//! built, faults or not.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use treecast_bitmatrix::BitSet;
use treecast_core::frontier::{FrontierSource, FrontierState, RoundDelta};
use treecast_trees::{generators, random, NodeId, RootedTree};

/// Sizes around the word boundaries.
const SIZES: [usize; 6] = [1, 2, 63, 64, 65, 130];
/// A size with deep trees and long tails.
const LARGE_N: usize = 6400;
/// Quiet rounds after which a [`LARGE_N`] tail with [`WIDE_TOKENS`]
/// stops, quiet or not: a reference round there scans `k · n` holder bits
/// in a debug build.
const LARGE_TAIL_ROUNDS: usize = 8;
/// Tracked tokens: one word, a full word, one bit into a second word,
/// and two full words. Below `n = k` sources repeat.
const TOKENS: [usize; 5] = [1, 16, 64, 65, 128];
/// The [`TOKENS`] that fill a row word or more.
const WIDE_TOKENS: [usize; 3] = [64, 65, 128];
/// Offline modes: nobody, the root, everyone, a seeded quarter.
const MODES: [u8; 4] = [0, 1, 2, 3];
/// Whole-tree rounds per case before the tail.
const WHOLE_ROUNDS: usize = 16;
/// Quiet rounds per case with nodes offline, before the online tail.
const MASKED_QUIET_ROUNDS: usize = 2;

#[derive(Debug, Clone)]
struct RefToken {
    source: NodeId,
    holders: BitSet,
    frontier: Vec<NodeId>,
    deferred: Vec<NodeId>,
    full: bool,
}

/// The per-token frontier round: each token scans its deferred nodes, its
/// frontier's children and the delta, or all `n` nodes in a
/// `RoundDelta::All` round.
struct Reference {
    n: usize,
    tokens: Vec<RefToken>,
    disseminated: usize,
    seen: BitSet,
    fresh: Vec<NodeId>,
    touched: Vec<NodeId>,
    pending: Vec<NodeId>,
}

impl Reference {
    fn new(n: usize, sources: &[NodeId]) -> Self {
        let tokens: Vec<RefToken> = sources
            .iter()
            .map(|&s| {
                let holders = BitSet::singleton(n, s);
                RefToken {
                    source: s,
                    full: holders.is_full(),
                    holders,
                    frontier: vec![s],
                    deferred: Vec::new(),
                }
            })
            .collect();
        Reference {
            n,
            disseminated: tokens.iter().filter(|t| t.full).count(),
            tokens,
            seen: BitSet::new(n),
            fresh: Vec::new(),
            touched: Vec::new(),
            pending: Vec::new(),
        }
    }

    fn apply_round(&mut self, tree: &RootedTree, delta: RoundDelta<'_>, offline: &[NodeId]) {
        let n = self.n;
        let is_offline = |v: NodeId| offline.binary_search(&v).is_ok();
        let mut seen = std::mem::replace(&mut self.seen, BitSet::new(0));
        let mut fresh = std::mem::take(&mut self.fresh);
        let mut touched = std::mem::take(&mut self.touched);
        let mut pending = std::mem::take(&mut self.pending);
        let mut disseminated = self.disseminated;

        for tok in &mut self.tokens {
            if tok.full {
                tok.frontier.clear();
                continue;
            }

            pending.clear();
            match delta {
                RoundDelta::All => {
                    tok.deferred.clear();
                    pending.extend(0..n);
                }
                _ => {
                    pending.append(&mut tok.deferred);
                    for &f in &tok.frontier {
                        pending.extend_from_slice(tree.children(f));
                    }
                    if let RoundDelta::Changed(nodes) = delta {
                        pending.extend_from_slice(nodes);
                    }
                }
            }

            fresh.clear();
            touched.clear();
            for &y in &pending {
                if seen.contains(y) {
                    continue;
                }
                seen.insert(y);
                touched.push(y);
                if tok.holders.contains(y) {
                    continue;
                }
                let Some(p) = tree.parent(y) else {
                    continue;
                };
                if !tok.holders.contains(p) {
                    continue;
                }
                if is_offline(y) || is_offline(p) {
                    tok.deferred.push(y);
                    continue;
                }
                fresh.push(y);
            }

            for &y in &fresh {
                tok.holders.insert(y);
            }
            std::mem::swap(&mut tok.frontier, &mut fresh);
            for &y in &touched {
                seen.remove(y);
            }
            if tok.holders.is_full() {
                tok.full = true;
                disseminated += 1;
            }
        }

        self.disseminated = disseminated;
        self.seen = seen;
        self.fresh = fresh;
        self.touched = touched;
        self.pending = pending;
    }

    fn forget(&mut self, y: NodeId) {
        for tok in &mut self.tokens {
            if tok.source == y {
                continue;
            }
            if tok.holders.remove(y) {
                if tok.full {
                    tok.full = false;
                    self.disseminated -= 1;
                }
                tok.deferred.push(y);
            }
        }
    }

    /// Whether no token has a frontier or a deferred node left.
    fn is_quiet(&self) -> bool {
        self.tokens
            .iter()
            .all(|t| t.frontier.is_empty() && t.deferred.is_empty())
    }
}

fn as_set(nodes: &[NodeId]) -> BTreeSet<NodeId> {
    nodes.iter().copied().collect()
}

fn assert_same(state: &FrontierState, reference: &Reference, ctx: &str) {
    state.debug_validate();
    assert_eq!(
        state.disseminated_count(),
        reference.disseminated,
        "{ctx}: disseminated"
    );
    assert_eq!(
        state.progress().disseminated,
        reference.disseminated,
        "{ctx}: progress"
    );
    for (i, tok) in reference.tokens.iter().enumerate() {
        assert_eq!(state.holders(i), tok.holders, "{ctx}: token {i} holders");
    }
    let union = |list: fn(&RefToken) -> &[NodeId]| -> BTreeSet<NodeId> {
        reference.tokens.iter().flat_map(list).copied().collect()
    };
    assert_eq!(
        as_set(state.frontier()),
        union(|t| &t.frontier),
        "{ctx}: frontier"
    );
    assert_eq!(
        as_set(state.deferred()),
        union(|t| &t.deferred),
        "{ctx}: deferred"
    );
}

/// The offline set of `mode`: empty, root only, all nodes, or a seeded
/// quarter. Sorted, as `RoundFaults::normalize` leaves it.
fn offline_set(mode: u8, tree: &RootedTree, rng: &mut StdRng) -> Vec<NodeId> {
    match mode {
        0 => Vec::new(),
        1 => vec![tree.root()],
        2 => (0..tree.n()).collect(),
        _ => (0..tree.n())
            .filter(|_| rng.gen_range(0..4u32) == 0)
            .collect(),
    }
}

/// What a [`run_case`] exercised.
#[derive(Debug, Default)]
struct Coverage {
    /// Whole-tree rounds that left masked nodes deferred.
    deferred_rounds: usize,
    /// Token losses that took something away.
    losses: usize,
    /// Nodes left deferred by the masked quiet rounds.
    masked_quiet_deferrals: usize,
    /// Quiet rounds in the tail.
    quiet_rounds: usize,
}

/// [`WHOLE_ROUNDS`] whole-tree rounds of `k` evenly spread tokens in
/// offline `mode` against the reference, with a token loss every third
/// round, checking after each one that the tree never built its children
/// index. Then the tail on the last tree re-rooted at a random node: one
/// `Changed` round and [`MASKED_QUIET_ROUNDS`] `Unchanged` rounds with a
/// fresh offline set of the same mode, then `Unchanged` rounds with
/// everyone online until nothing moves or `max_tail` of them have run.
fn run_case(n: usize, k: usize, mode: u8, seed: u64, max_tail: usize) -> Coverage {
    let mut rng = StdRng::seed_from_u64(seed);
    let sources: Vec<NodeId> = (0..k).map(|i| i * n / k).collect();
    let mut state = FrontierState::new(n, &sources);
    let mut reference = Reference::new(n, &sources);
    let mut tree = random::uniform(n, &mut rng);
    let mut seen = Coverage::default();

    for round in 1..=WHOLE_ROUNDS {
        random::uniform_into(&mut tree, n, &mut rng);
        let offline = offline_set(mode, &tree, &mut rng);
        state.apply_round(&tree, RoundDelta::All, &offline);
        let ctx = format!("n = {n}, k = {k}, offline mode {mode}, whole round {round}");
        assert!(
            !tree.is_indexed(),
            "{ctx}: a whole-tree round built the index"
        );
        reference.apply_round(&tree, RoundDelta::All, &offline);
        assert_same(&state, &reference, &ctx);
        seen.deferred_rounds += usize::from(!state.deferred().is_empty());
        if round % 3 == 0 {
            let victim = rng.gen_range(0..n);
            let before = holders_total(&state);
            state.forget(victim);
            reference.forget(victim);
            seen.losses += usize::from(holders_total(&state) < before);
            assert_same(
                &state,
                &reference,
                &format!("{ctx}, after forget({victim})"),
            );
        }
    }

    let r = rng.gen_range(0..n);
    let changed = tree.path_to_root(r);
    let tree = tree.rerooted(r);
    let offline = offline_set(mode, &tree, &mut rng);
    state.apply_round(&tree, RoundDelta::Changed(&changed), &offline);
    reference.apply_round(&tree, RoundDelta::Changed(&changed), &offline);
    let ctx = format!("n = {n}, k = {k}, offline mode {mode}, re-rooted at {r}");
    assert_same(&state, &reference, &ctx);
    for round in 1..=MASKED_QUIET_ROUNDS {
        state.apply_round(&tree, RoundDelta::Unchanged, &offline);
        reference.apply_round(&tree, RoundDelta::Unchanged, &offline);
        seen.masked_quiet_deferrals += state.deferred().len();
        let ctx = format!("n = {n}, k = {k}, offline mode {mode}, masked quiet round {round}");
        assert_same(&state, &reference, &ctx);
    }

    // With everyone online a deferred node's parent edge carries, so the
    // first quiet round resolves it; the rest run to quiescence.
    while !reference.is_quiet() && seen.quiet_rounds < max_tail {
        seen.quiet_rounds += 1;
        let round = seen.quiet_rounds;
        assert!(round <= n, "n = {n}, k = {k}, mode {mode}: no quiescence");
        state.apply_round(&tree, RoundDelta::Unchanged, &[]);
        reference.apply_round(&tree, RoundDelta::Unchanged, &[]);
        let ctx = format!("n = {n}, k = {k}, offline mode {mode}, unchanged round {round}");
        assert_same(&state, &reference, &ctx);
        assert!(
            state.deferred().is_empty(),
            "{ctx}: deferred nodes must resolve once everyone is online"
        );
    }
    seen
}

/// Holder sets summed over tokens, for telling a loss that bit.
fn holders_total(state: &FrontierState) -> usize {
    let k = state.progress().tokens;
    (0..k).map(|i| state.holders(i).len()).sum()
}

/// Runs [`run_case`] over `sizes × tokens × MODES` and checks that the
/// grid exercised masked edges, losses and quiet tails.
fn run_grid(sizes: &[usize], tokens: &[usize], max_tail: usize) {
    let mut total = Coverage::default();
    for &n in sizes {
        for &k in tokens {
            for mode in MODES {
                let seed = 0xF0_0000 + 1024 * n as u64 + 4 * k as u64 + u64::from(mode);
                let seen = run_case(n, k, mode, seed, max_tail);
                total.deferred_rounds += seen.deferred_rounds;
                total.losses += seen.losses;
                total.masked_quiet_deferrals += seen.masked_quiet_deferrals;
                total.quiet_rounds += seen.quiet_rounds;
            }
        }
    }
    assert!(
        total.deferred_rounds > 0
            && total.losses > 0
            && total.masked_quiet_deferrals > 0
            && total.quiet_rounds > 0,
        "want masked edges, losses, masked quiet rounds and quiet tails, got {total:?}"
    );
}

/// Every token count and offline mode at the small sizes, each tail to
/// quiescence.
#[test]
fn whole_tree_rounds_match_the_candidate_scan() {
    run_grid(&SIZES, &TOKENS, usize::MAX);
}

/// At [`LARGE_N`] with one-word rows, in every offline mode, each tail to
/// quiescence: deep quiet propagation checked to the end.
#[test]
fn large_trees_match_the_candidate_scan() {
    run_grid(&[LARGE_N], &[1, 16], usize::MAX);
}

/// At [`LARGE_N`] with full and multi-word rows, in every offline mode,
/// tails cut at [`LARGE_TAIL_ROUNDS`].
#[test]
fn large_trees_with_wide_rows_match_the_candidate_scan() {
    run_grid(&[LARGE_N], &WIDE_TOKENS, LARGE_TAIL_ROUNDS);
}

/// Seeded whole-tree rounds from the first round to dissemination, for
/// every token count: no round ever builds its tree's children index.
#[test]
fn seeded_rounds_never_build_the_children_index() {
    let n = 3000;
    for k in TOKENS {
        let sources: Vec<NodeId> = (0..k).map(|i| i * n / k).collect();
        let mut state = FrontierState::new(n, &sources);
        let mut source = FrontierSource::seeded(n, 0x5EED);
        let mut rounds = 0;
        while state.disseminated_count() < k {
            rounds += 1;
            assert!(rounds <= n, "k = {k}: no dissemination");
            let round = source.next_round(n, None);
            state.apply_round(round.tree, round.delta, &[]);
            assert!(
                !round.tree.is_indexed(),
                "k = {k}: round {rounds} built the children index"
            );
        }
        assert!(rounds > 2, "k = {k}: want several rounds");
    }
}

#[test]
fn whole_tree_round_with_repeated_offline_entries_defers_once() {
    let n = 6;
    let star = generators::star(n);
    let mut state = FrontierState::new(n, &[0]);
    let mut reference = Reference::new(n, &[0]);
    let offline = [0, 0, 3, 3];
    state.apply_round(&star, RoundDelta::All, &offline);
    reference.apply_round(&star, RoundDelta::All, &offline);
    assert_same(&state, &reference, "repeated offline entries");
    assert_eq!(state.deferred().len(), n - 1, "each leaf deferred once");
}

#[test]
#[should_panic(expected = "offline set must be sorted ascending")]
fn unsorted_offline_set_panics() {
    let n = 4;
    let mut state = FrontierState::new(n, &[0]);
    state.apply_round(&generators::path(n), RoundDelta::All, &[2, 1]);
}

#[test]
#[should_panic(expected = "out of range")]
fn out_of_range_offline_node_panics() {
    let n = 4;
    let mut state = FrontierState::new(n, &[0]);
    state.apply_round(&generators::path(n), RoundDelta::Unchanged, &[n]);
}
