//! Pins the frontier engine's whole-tree rounds to the per-candidate scan
//! they replace.
//!
//! `FrontierState::apply_round` steps a `RoundDelta::All` round along the
//! tree's effective parent map: one word gather per dense holder row, the
//! holders' children per sparse row, and the masked edges for the
//! fault-deferred nodes. `Reference` below is a verbatim copy of the scan
//! it replaced, which made every node a candidate. After every round both
//! must agree on the holder sets, the frontier and deferred sets (as
//! sets), and the disseminated count — through offline masks, token
//! losses, and the `Unchanged` rounds that then resolve the deferred nodes.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use treecast_bitmatrix::{hybrid_threshold, BitSet, HybridRow};
use treecast_core::frontier::{FrontierState, RoundDelta};
use treecast_trees::{generators, random, NodeId, RootedTree};

/// Sizes around the word boundaries, plus one whose promotion threshold
/// (100) lets rows spend several rounds on each side of it.
const SIZES: [usize; 7] = [1, 2, 63, 64, 65, 130, 6400];
/// Whole-tree rounds per case before the `Unchanged` tail.
const WHOLE_ROUNDS: usize = 16;

#[derive(Debug, Clone)]
struct RefToken {
    source: NodeId,
    holders: HybridRow,
    frontier: Vec<NodeId>,
    deferred: Vec<NodeId>,
    full: bool,
}

/// The per-candidate frontier round as it was before whole-tree rounds:
/// a `RoundDelta::All` round makes all `n` nodes candidates.
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
                let holders = HybridRow::singleton(n, s);
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
    for (i, tok) in reference.tokens.iter().enumerate() {
        assert_eq!(state.holders(i), &tok.holders, "{ctx}: token {i} holders");
        assert_eq!(
            as_set(state.frontier(i)),
            as_set(&tok.frontier),
            "{ctx}: token {i} frontier"
        );
        assert_eq!(
            as_set(state.deferred(i)),
            as_set(&tok.deferred),
            "{ctx}: token {i} deferred"
        );
    }
}

/// The offline set of `mode`: empty, root only, all nodes, or a seeded
/// subset. Sorted, as `RoundFaults::normalize` leaves it.
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

/// Whole-tree rounds per (size, offline mode) against the reference, with
/// a token loss every third round, then `Unchanged` rounds on the last
/// tree with everyone online until nothing moves. Returns
/// how many whole-tree token steps saw a sparse and a dense holder row.
fn run_case(n: usize, mode: u8) -> (usize, usize) {
    let mut rng = StdRng::seed_from_u64(0xF0_0000 + 16 * n as u64 + u64::from(mode));
    let k = n.min(8);
    let sources: Vec<NodeId> = (0..k).map(|i| i * n / k).collect();
    let mut state = FrontierState::new(n, &sources);
    let mut reference = Reference::new(n, &sources);
    let mut tree = random::uniform(n, &mut rng);
    let (mut sparse, mut dense) = (0, 0);

    for round in 1..=WHOLE_ROUNDS {
        random::uniform_into(&mut tree, n, &mut rng);
        let offline = offline_set(mode, &tree, &mut rng);
        for i in (0..k).filter(|&i| !state.holders(i).is_full()) {
            if state.holders(i).is_sparse() {
                sparse += 1;
            } else {
                dense += 1;
            }
        }
        state.apply_round(&tree, RoundDelta::All, &offline);
        reference.apply_round(&tree, RoundDelta::All, &offline);
        let ctx = format!("n = {n}, offline mode {mode}, whole round {round}");
        assert_same(&state, &reference, &ctx);
        if round % 3 == 0 {
            let victim = rng.gen_range(0..n);
            state.forget(victim);
            reference.forget(victim);
            assert_same(
                &state,
                &reference,
                &format!("{ctx}, after forget({victim})"),
            );
        }
    }

    // With everyone online a deferred node's parent edge carries, so the
    // first `Unchanged` round resolves it; the rest run to quiescence.
    let quiet = |r: &Reference| {
        r.tokens
            .iter()
            .all(|t| t.frontier.is_empty() && t.deferred.is_empty())
    };
    let mut round = 0;
    while !quiet(&reference) {
        round += 1;
        assert!(round <= n, "n = {n}, mode {mode}: no quiescence");
        state.apply_round(&tree, RoundDelta::Unchanged, &[]);
        reference.apply_round(&tree, RoundDelta::Unchanged, &[]);
        let ctx = format!("n = {n}, offline mode {mode}, unchanged round {round}");
        assert_same(&state, &reference, &ctx);
        assert!(
            (0..k).all(|i| state.deferred(i).is_empty()),
            "{ctx}: deferred nodes must resolve once everyone is online"
        );
    }
    (sparse, dense)
}

#[test]
fn whole_tree_rounds_match_the_candidate_scan() {
    for n in SIZES {
        let (mut sparse, mut dense) = (0, 0);
        for mode in 0..4 {
            let (s, d) = run_case(n, mode);
            sparse += s;
            dense += d;
        }
        if n > hybrid_threshold(n) {
            assert!(
                sparse > 0 && dense > 0,
                "n = {n}: want whole-tree rounds on both row kinds, got {sparse} sparse / {dense} dense"
            );
        }
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
    assert_eq!(state.deferred(0).len(), n - 1, "each leaf deferred once");
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
