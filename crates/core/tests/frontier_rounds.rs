//! Pins the frontier engine's whole-tree rounds to the per-candidate scan
//! they replace.
//!
//! `FrontierState::apply_round` steps a `RoundDelta::All` round along the
//! tree's effective parent map: one word gather per dense holder row, one
//! shared marking pass for up to 64 sparse rows (the holders' children
//! per sparse row beyond that), and the masked edges for the
//! fault-deferred nodes. `Reference` below is a verbatim copy of the scan
//! it replaced, which made every node a candidate. After every round both
//! must agree on the holder sets, the frontier and deferred sets (as
//! sets), and the disseminated count — through offline masks, token
//! losses, and the `Unchanged` rounds that then resolve the deferred nodes.
//! The whole-tree rounds also pin when the round tree's lazily built
//! children index gets built: never, unless a children walk or a masked
//! edge reads it.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use treecast_bitmatrix::{hybrid_threshold, BitSet, HybridRow};
use treecast_core::frontier::{FrontierSource, FrontierState, RoundDelta};
use treecast_trees::{generators, random, NodeId, RootedTree};

/// Sizes around the word boundaries, plus one whose promotion threshold
/// (100) lets rows spend several rounds on each side of it.
const SIZES: [usize; 7] = [1, 2, 63, 64, 65, 130, 6400];
/// Whole-tree rounds per case before the `Unchanged` tail.
const WHOLE_ROUNDS: usize = 16;
/// Whole-tree rounds per case around the shared-pass limit: enough for
/// rows to promote at n = 6400, few enough to keep the reference's
/// O(k·n) rounds cheap.
const LIMIT_ROUNDS: usize = 10;
/// The most sparse rows a whole-tree round steps in one shared pass;
/// beyond it each sparse row walks its holders' children.
const SHARED_PASS_ROWS: usize = 64;

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

/// What the whole-tree rounds of [`run_case`] exercised.
#[derive(Debug, Default)]
struct Coverage {
    /// Token steps on a sparse holder row.
    sparse: usize,
    /// Token steps on a dense holder row.
    dense: usize,
    /// Rounds with more sparse rows than one shared pass serves.
    wide: usize,
    /// Rounds whose masked edges built the tree's children index.
    indexed_by_faults: usize,
}

/// `whole_rounds` whole-tree rounds of `k` evenly spread tokens in
/// offline `mode` against the reference, with a token loss every third
/// round, then (with `tail`) `Unchanged` rounds on the last tree with
/// everyone online until nothing moves. After each whole-tree round,
/// checks that the tree's children index was built only by a children
/// walk (more than [`SHARED_PASS_ROWS`] sparse rows) or the masked edges.
fn run_case(n: usize, k: usize, mode: u8, whole_rounds: usize, seed: u64, tail: bool) -> Coverage {
    let mut rng = StdRng::seed_from_u64(seed);
    let sources: Vec<NodeId> = (0..k).map(|i| i * n / k).collect();
    let mut state = FrontierState::new(n, &sources);
    let mut reference = Reference::new(n, &sources);
    let mut tree = random::uniform(n, &mut rng);
    let mut seen = Coverage::default();

    for round in 1..=whole_rounds {
        random::uniform_into(&mut tree, n, &mut rng);
        let offline = offline_set(mode, &tree, &mut rng);
        let mut sparse_rows = 0;
        for i in (0..k).filter(|&i| !state.holders(i).is_full()) {
            if state.holders(i).is_sparse() {
                sparse_rows += 1;
            } else {
                seen.dense += 1;
            }
        }
        seen.sparse += sparse_rows;
        let wide = sparse_rows > SHARED_PASS_ROWS;
        seen.wide += usize::from(wide);
        state.apply_round(&tree, RoundDelta::All, &offline);
        let ctx = format!("n = {n}, k = {k}, offline mode {mode}, whole round {round}");
        if wide {
            assert!(
                tree.is_indexed(),
                "{ctx}: the children walk reads the index"
            );
        } else if offline.is_empty() {
            assert!(
                !tree.is_indexed(),
                "{ctx}: no fault, no children walk, no index"
            );
        } else {
            seen.indexed_by_faults += usize::from(tree.is_indexed());
        }
        reference.apply_round(&tree, RoundDelta::All, &offline);
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
    while tail && !quiet(&reference) {
        round += 1;
        assert!(round <= n, "n = {n}, k = {k}, mode {mode}: no quiescence");
        state.apply_round(&tree, RoundDelta::Unchanged, &[]);
        reference.apply_round(&tree, RoundDelta::Unchanged, &[]);
        let ctx = format!("n = {n}, k = {k}, offline mode {mode}, unchanged round {round}");
        assert_same(&state, &reference, &ctx);
        assert!(
            (0..k).all(|i| state.deferred(i).is_empty()),
            "{ctx}: deferred nodes must resolve once everyone is online"
        );
    }
    seen
}

#[test]
fn whole_tree_rounds_match_the_candidate_scan() {
    let mut indexed_by_faults = 0;
    for n in SIZES {
        let (mut sparse, mut dense) = (0, 0);
        for mode in 0..4 {
            let seed = 0xF0_0000 + 16 * n as u64 + u64::from(mode);
            let seen = run_case(n, n.min(8), mode, WHOLE_ROUNDS, seed, true);
            sparse += seen.sparse;
            dense += seen.dense;
            indexed_by_faults += seen.indexed_by_faults;
        }
        if n > hybrid_threshold(n) {
            assert!(
                sparse > 0 && dense > 0,
                "n = {n}: want whole-tree rounds on both row kinds, got {sparse} sparse / {dense} dense"
            );
        }
    }
    assert!(
        indexed_by_faults > 0,
        "want whole-tree rounds whose masked edges build the index lazily"
    );
}

/// Around the 64 rows one shared pass serves: at n = 6400 (promotion
/// threshold 100) rows stay sparse for several rounds, so k = 64 steps
/// every sparse row in the shared pass, while k = 65 and k = 128 start
/// with children walks and cross over to the shared pass as rows
/// promote. The root-offline mode adds the deferred path. The cases skip
/// the `Unchanged` tail, which at k = 128 would add about a hundred
/// rounds of reference checks in debug builds.
#[test]
fn sparse_rows_around_the_shared_pass_limit_match_the_candidate_scan() {
    let n = 6400;
    for k in [64, 65, 128] {
        let (mut wide, mut narrow) = (0, 0);
        for mode in [0, 1] {
            let seed = 0xF1_0000 + 16 * k as u64 + u64::from(mode);
            let seen = run_case(n, k, mode, LIMIT_ROUNDS, seed, false);
            wide += seen.wide;
            narrow += LIMIT_ROUNDS - seen.wide;
        }
        if k > SHARED_PASS_ROWS {
            assert!(
                wide > 0 && narrow > 0,
                "k = {k}: want rounds on both sides of the limit, got {wide} wide / {narrow} narrow"
            );
        } else {
            assert_eq!(wide, 0, "k = {k}: every round fits one shared pass");
        }
    }
}

/// Seeded whole-tree rounds at k = 16 from the first round to
/// dissemination: no faults and at most 64 sparse rows, so no round ever
/// builds its tree's children index.
#[test]
fn seeded_rounds_never_build_the_children_index() {
    let n = 3000;
    let k = 16;
    let sources: Vec<NodeId> = (0..k).map(|i| i * n / k).collect();
    let mut state = FrontierState::new(n, &sources);
    let mut source = FrontierSource::seeded(n, 0x5EED);
    let mut rounds = 0;
    while state.disseminated_count() < k {
        rounds += 1;
        assert!(rounds <= n, "no dissemination");
        let round = source.next_round(n, None);
        state.apply_round(round.tree, round.delta, &[]);
        assert!(
            !round.tree.is_indexed(),
            "round {rounds} built the children index"
        );
    }
    assert!(rounds > 2, "want rounds with sparse and dense rows");
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
