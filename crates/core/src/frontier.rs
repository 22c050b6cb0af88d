//! The frontier-sparse engine: million-node runs in O(newly informed)
//! work per round.
//!
//! The dense engine carries the `n × n` product graph, O(n²/64) words of
//! work per round. But along a round tree, node `y` hears token `x`
//! exactly when its parent already holds `x`, so a round only needs to
//! examine, per token,
//!
//! * last round's fault-**deferred** candidates,
//! * the children of last round's **frontier** (newly informed nodes), and
//! * the nodes whose parent changed (the **delta** the source reports).
//!
//! Nothing else can change (see `apply_round`): on a static tree a round
//! costs O(frontier). Holder sets are [`HybridRow`]s — sorted lists while
//! small, dense words once promoted.
//!
//! When the whole tree changes ([`RoundDelta::All`], e.g. a fresh uniform
//! tree every round) the candidate lists would be all `n` nodes per token,
//! so such a round steps the tree directly instead: one O(n) pass builds
//! the effective parent map (`y`'s parent if the edge carries, else `y`),
//! then each token costs one 64-bits-per-word gather over its dense holder
//! row, and up to 64 sparse rows share one more pass over the map (a bit
//! per token on each holder), plus a scan of the masked edges for the
//! fault-deferred nodes. None of that reads the tree's children index, so
//! a freshly sampled tree never builds one unless a fault masks an edge
//! or more than 64 rows are sparse.
//!
//! # Exactness and scale
//!
//! With [`SourceSet::All`] workloads all `n` tokens are tracked: exactly
//! the dense semantics, pinned round-for-round (faults included) by
//! `tests/frontier_differential.rs`. That is Ω(n²) in the worst case, so
//! n = 10⁶ experiments track [`SourceSet::Nodes`]
//! ([`crate::KSourceBroadcast`]). There, and only there,
//! [`WorkloadReport::broadcast_time`] is the first round a *tracked*
//! token disseminated, where the dense engine counts any of the `n`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use treecast_bitmatrix::{gather_word, BitSet, HybridRow};
use treecast_trees::{random, NodeId, RootedTree};

use crate::drive::{drive, RoundEngine};
use crate::engine::{summarize, SequenceSource, SimulationConfig, StaticSource, TreeSource};
use crate::model::{check_offline, round_parents_into};
use crate::scenario::{FaultModel, NoFaults, RoundFaults};
use crate::workload::{SourceSet, Workload, WorkloadProgress, WorkloadReport};

/// How this round's tree differs from the previous round's, as reported
/// by [`FrontierSource::next_round`].
///
/// The delta is what lets the frontier engine skip the O(n) "which edges
/// moved" scan: a node can only become newly reachable through its parent
/// edge, so the candidate set of a round is deferred ∪ frontier-children
/// ∪ delta.
#[derive(Debug, Clone, Copy)]
pub enum RoundDelta<'a> {
    /// The effective tree is identical to the previous round's — no
    /// parent changed.
    Unchanged,
    /// Only the listed nodes may have a different parent than last round
    /// (e.g. the nodes on a re-rooting path). May name nodes whose parent
    /// did not actually change; extra candidates are harmless.
    Changed(&'a [NodeId]),
    /// Arbitrarily different tree (e.g. a fresh uniform draw). Always
    /// sound. No candidate lists: one O(n) parent map per round, then one
    /// word gather per dense token row (see [`FrontierState::apply_round`]).
    All,
}

/// Per-token frontier state: the holder set plus the worklists that make
/// the next round O(candidates).
#[derive(Debug, Clone)]
struct TokenFrontier {
    /// The node whose token this is (it never forgets it).
    source: NodeId,
    /// Nodes currently holding the token.
    holders: HybridRow,
    /// Nodes that became holders in the last applied round.
    frontier: Vec<NodeId>,
    /// Candidates blocked by faults (offline endpoint) or token loss in
    /// an earlier round; re-examined every round until resolved.
    deferred: Vec<NodeId>,
    /// Cached `holders.is_full()`.
    full: bool,
}

impl TokenFrontier {
    /// Resolves a [`RoundDelta::All`] round against the pre-round holder
    /// set with no candidate list: pushes the nodes that receive the token
    /// onto `fresh` and refills `deferred` with the fault-blocked ones.
    /// `round_parents[y]` is `y`'s parent if that edge carries this round,
    /// else `y` ([`round_parents_into`]).
    ///
    /// A sparse row that [`step_sparse_rows`] already stepped (`marked`)
    /// holds its new holders in `frontier`; they move to `fresh` here.
    fn step_whole_tree(
        &mut self,
        tree: &RootedTree,
        round_parents: &[NodeId],
        offline: &[NodeId],
        marked: bool,
        fresh: &mut Vec<NodeId>,
    ) {
        let holders = &self.holders;
        match holders.dense_words() {
            // Dense: `y` is new iff it is not a holder but its round
            // parent is — one gathered word per 64 nodes.
            Some(words) => {
                for (w, chunk) in round_parents.chunks(64).enumerate() {
                    let mut new = gather_word(words, chunk) & !words[w];
                    while new != 0 {
                        fresh.push(w * 64 + new.trailing_zeros() as usize);
                        new &= new - 1;
                    }
                }
            }
            None if marked => std::mem::swap(fresh, &mut self.frontier),
            // Sparse, in a round with too many sparse rows to share one
            // pass: only a holder's children can be new.
            None => {
                for h in holders.iter() {
                    let kids = tree.children(h).iter().copied();
                    fresh.extend(kids.filter(|&c| round_parents[c] == h && !holders.contains(c)));
                }
            }
        }

        // Deferred: the non-holders whose parent holds the token across a
        // masked edge — an offline node itself, or an online child of an
        // offline node. Repeated offline entries are skipped.
        self.deferred.clear();
        let is_offline = |v: NodeId| offline.binary_search(&v).is_ok();
        for (i, &v) in offline.iter().enumerate() {
            if i > 0 && offline[i - 1] == v {
                continue;
            }
            if let Some(p) = tree.parent(v) {
                if !holders.contains(v) && holders.contains(p) {
                    self.deferred.push(v);
                }
            }
            if holders.contains(v) {
                let kids = tree.children(v).iter().copied();
                self.deferred
                    .extend(kids.filter(|&c| !is_offline(c) && !holders.contains(c)));
            }
        }
    }
}

/// The most sparse rows one [`step_sparse_rows`] pass serves: one bit of a
/// node's mark word each.
const MARK_BITS: usize = u64::BITS as usize;

/// Steps the sparse rows `marked` (at most [`MARK_BITS`] unfinished
/// tokens) of a whole-tree round in one shared O(n) pass over the
/// effective parent map, reading no children index: bit `b` of `marks[v]`
/// says that `v` holds token `marked[b]`, so `y` receives exactly the
/// tokens in `marks[round_parents[y]] & !marks[y]`. Each token's new
/// holders land in its `frontier`, in ascending node order. `holding`
/// has the bit of every marked node, so the pass reads a mark word only
/// behind a set bit: n/8 bytes of random reads instead of 8n. `marks`
/// and `holding` are all zero before and after (clearing costs
/// O(holders)).
fn step_sparse_rows(
    tokens: &mut [TokenFrontier],
    marked: &[usize],
    round_parents: &[NodeId],
    marks: &mut Vec<u64>,
    holding: &mut BitSet,
) {
    marks.resize(round_parents.len(), 0);
    for (bit, &i) in marked.iter().enumerate() {
        let tok = &mut tokens[i];
        tok.frontier.clear();
        for h in tok.holders.iter() {
            marks[h] |= 1 << bit;
            holding.insert(h);
        }
    }
    for (y, &p) in round_parents.iter().enumerate() {
        if !holding.contains(p) {
            continue;
        }
        let mut new = marks[p] & !marks[y];
        while new != 0 {
            tokens[marked[new.trailing_zeros() as usize]]
                .frontier
                .push(y);
            new &= new - 1;
        }
    }
    for &i in marked {
        for h in tokens[i].holders.iter() {
            marks[h] = 0;
            holding.remove(h);
        }
    }
}

/// The frontier-sparse dissemination state: one [`HybridRow`] holder set
/// and a newly-informed worklist per tracked token.
///
/// Observationally equivalent to the dense engine's state on the tracked
/// tokens — [`TrackedTokens`](crate::TrackedTokens) for
/// [`SourceSet::Nodes`], the full [`BroadcastState`](crate::BroadcastState)
/// (token `x` ↔ column `x`) when all `n` tokens are tracked — but a round
/// costs O(candidates) instead of O(n²/64).
///
/// # Examples
///
/// ```
/// use treecast_core::frontier::{FrontierState, RoundDelta};
/// use treecast_trees::generators;
///
/// let n = 5;
/// let mut state = FrontierState::new(n, &[0]);
/// let path = generators::path(n);
/// for round in 1..n {
///     state.apply_round(&path, RoundDelta::Unchanged, &[]);
///     assert_eq!(state.holders(0).len(), round + 1);
/// }
/// assert_eq!(state.disseminated_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct FrontierState {
    n: usize,
    round: u64,
    tokens: Vec<TokenFrontier>,
    /// Tokens currently held by everyone (kept incrementally).
    disseminated: usize,
    /// Per-round scratch bits, clear between rounds: the candidate dedup
    /// of a delta round, cleared via `touched` so clearing costs
    /// O(candidates), not O(n/64); in a whole-tree round, the nodes that
    /// hold a sparse row's token ([`step_sparse_rows`]).
    seen: BitSet,
    /// Scratch: nodes accepted this round (the next frontier).
    fresh: Vec<NodeId>,
    /// Scratch: nodes whose `seen` bit is set.
    touched: Vec<NodeId>,
    /// Scratch: the round's candidate list.
    pending: Vec<NodeId>,
    /// Scratch: a whole-tree round's effective parent map, shared by all
    /// tokens.
    round_parents: Vec<NodeId>,
    /// Scratch: per-node token bits of a whole-tree round's sparse rows
    /// ([`step_sparse_rows`]); all zero between rounds.
    marks: Vec<u64>,
    /// Scratch: the tokens whose rows `marks` carries, bit `b` ↔ token
    /// `marked[b]`.
    marked: Vec<usize>,
}

impl FrontierState {
    /// A fresh state tracking one token per source: token `i` is held
    /// only by `sources[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `sources` is empty, or any source is `>= n`.
    pub fn new(n: usize, sources: &[NodeId]) -> Self {
        assert!(n > 0, "the model needs at least one process");
        assert!(!sources.is_empty(), "need at least one source");
        let mut tokens = Vec::with_capacity(sources.len());
        let mut disseminated = 0;
        for &s in sources {
            assert!(s < n, "source {s} out of range for n = {n}");
            let holders = HybridRow::singleton(n, s);
            let full = holders.is_full();
            if full {
                disseminated += 1;
            }
            tokens.push(TokenFrontier {
                source: s,
                holders,
                frontier: vec![s],
                deferred: Vec::new(),
                full,
            });
        }
        FrontierState {
            n,
            round: 0,
            tokens,
            disseminated,
            seen: BitSet::new(n),
            fresh: Vec::new(),
            touched: Vec::new(),
            pending: Vec::new(),
            round_parents: Vec::new(),
            marks: Vec::new(),
            marked: Vec::new(),
        }
    }

    /// Number of processes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Rounds applied so far.
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The holder set of token `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a tracked token.
    pub fn holders(&self, i: usize) -> &HybridRow {
        &self.tokens[i].holders
    }

    /// Token `i`'s frontier: the nodes that became holders in the last
    /// applied round (before any round, the source), in no particular
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a tracked token.
    pub fn frontier(&self, i: usize) -> &[NodeId] {
        &self.tokens[i].frontier
    }

    /// The non-holders of token `i` that a fault (an offline endpoint or a
    /// token loss) kept from it; they are re-examined every round until
    /// resolved. In no particular order.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a tracked token.
    pub fn deferred(&self, i: usize) -> &[NodeId] {
        &self.tokens[i].deferred
    }

    /// Tokens currently held by every node (maintained incrementally;
    /// equal to recounting the full holder sets).
    #[inline]
    pub fn disseminated_count(&self) -> usize {
        self.disseminated
    }

    /// The progress summary the workload predicates consume.
    pub fn progress(&self) -> WorkloadProgress {
        WorkloadProgress {
            n: self.n,
            round: self.round,
            tokens: self.tokens.len(),
            disseminated: self.disseminated,
        }
    }

    /// Checks the between-round invariants; a noop in release builds.
    ///
    /// Per token: the source holds its own token, frontier nodes are
    /// holders (or deferred, after a `forget`), deferred nodes are
    /// in-range non-holders, and the cached `full` flag matches the
    /// holder set. Globally: `disseminated` equals the recount of full
    /// tokens, and the `seen` dedup bits are clear.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if any invariant is violated.
    pub fn debug_validate(&self) {
        #[cfg(debug_assertions)]
        {
            let mut full_tokens = 0usize;
            for (i, tok) in self.tokens.iter().enumerate() {
                assert!(tok.source < self.n, "token {i}: source out of range");
                assert!(
                    tok.holders.contains(tok.source),
                    "token {i}: source {} lost its own token",
                    tok.source
                );
                assert_eq!(
                    tok.holders.universe_size(),
                    self.n,
                    "token {i}: holder universe drifted from n"
                );
                for &f in &tok.frontier {
                    assert!(
                        f < self.n && (tok.holders.contains(f) || tok.deferred.contains(&f)),
                        "token {i}: frontier node {f} is neither a holder nor deferred"
                    );
                }
                for &d in &tok.deferred {
                    assert!(
                        d < self.n && !tok.holders.contains(d),
                        "token {i}: deferred node {d} is out of range or already a holder"
                    );
                }
                assert_eq!(
                    tok.full,
                    tok.holders.is_full(),
                    "token {i}: cached full flag disagrees with the holder set"
                );
                full_tokens += usize::from(tok.full);
            }
            assert_eq!(
                self.disseminated, full_tokens,
                "incremental disseminated count disagrees with the recount"
            );
            assert!(
                self.seen.is_empty(),
                "seen dedup bits not scrubbed between rounds"
            );
            assert!(
                self.marks.iter().all(|&m| m == 0),
                "sparse-row marks not scrubbed between rounds"
            );
        }
    }

    /// Applies one synchronous round along `tree` (self-loops implied),
    /// with the edges incident to the sorted `offline` nodes masked out —
    /// the frontier mirror of the dense engine's masked round matrix.
    ///
    /// # Cost
    ///
    /// [`RoundDelta::Unchanged`] and [`RoundDelta::Changed`] rounds
    /// examine O(candidates) nodes per token (below). A
    /// [`RoundDelta::All`] round builds the effective parent map once
    /// (O(n)) and then steps each token along the whole tree: a dense
    /// holder row costs one word gather of n bits ([`gather_word`]); the
    /// sparse rows share one more O(n) pass over the map while there are
    /// at most 64 of them, and otherwise each walks its holders'
    /// children. Either way the deferred set comes from the masked edges
    /// alone (offline nodes and their children). Only the children walks
    /// and a non-empty `offline` set read `tree`'s children index.
    ///
    /// # Correctness of the candidate set
    ///
    /// A node `y` can newly receive a token this round only if
    /// `p = parent(y)` held it at the start of the round. Induction over
    /// rounds shows `y` is always among the candidates examined:
    /// if `p` became a holder last round, `y` is a child of the last
    /// frontier; if `y`'s parent edge changed, `y` is in the delta; and
    /// otherwise `y` was already a candidate last round and was either
    /// informed then (contradiction), dropped because `p` was not yet a
    /// holder (then `p` joined a later frontier — first case), or blocked
    /// by a fault and parked in `deferred`, where it stays until
    /// resolved. Fault-forgotten nodes re-enter through `deferred` too
    /// ([`FrontierState::forget`]). A whole-tree round needs no
    /// candidates and leaves exactly the fault-blocked nodes deferred, so
    /// the induction carries on from it.
    ///
    /// New holders are collected first and committed after the scan, so a
    /// token still travels exactly one hop per round.
    ///
    /// # Panics
    ///
    /// Panics if `tree.n() != self.n()`, or `offline` is not sorted
    /// ascending or names a node `>= n`.
    pub fn apply_round(&mut self, tree: &RootedTree, delta: RoundDelta<'_>, offline: &[NodeId]) {
        assert_eq!(
            tree.n(),
            self.n,
            "round tree has {} nodes but the state has {}",
            tree.n(),
            self.n
        );
        check_offline(offline, self.n);
        let is_offline = |v: NodeId| offline.binary_search(&v).is_ok();
        let whole_tree = matches!(delta, RoundDelta::All);
        self.marked.clear();
        if whole_tree && self.tokens.iter().any(|tok| !tok.full) {
            round_parents_into(tree, offline, &mut self.round_parents);
            let sparse_rows = self.tokens.iter().enumerate();
            let sparse_rows = sparse_rows.filter(|(_, tok)| !tok.full && tok.holders.is_sparse());
            self.marked.extend(sparse_rows.map(|(i, _)| i));
            if self.marked.len() > MARK_BITS {
                self.marked.clear();
            } else if !self.marked.is_empty() {
                step_sparse_rows(
                    &mut self.tokens,
                    &self.marked,
                    &self.round_parents,
                    &mut self.marks,
                    &mut self.seen,
                );
            }
        }
        let shared_pass = !self.marked.is_empty();
        let mut seen = std::mem::replace(&mut self.seen, BitSet::new(0));
        let mut fresh = std::mem::take(&mut self.fresh);
        let mut touched = std::mem::take(&mut self.touched);
        let mut pending = std::mem::take(&mut self.pending);
        let mut disseminated = self.disseminated;

        for tok in &mut self.tokens {
            if tok.full {
                // Nothing left to inform; candidates would all be
                // dropped as already-holders. A later `forget` re-enters
                // through `deferred`.
                tok.frontier.clear();
                continue;
            }
            fresh.clear();
            if whole_tree {
                let marked = shared_pass && tok.holders.is_sparse();
                tok.step_whole_tree(tree, &self.round_parents, offline, marked, &mut fresh);
            } else {
                // Phase 1: gather candidates.
                pending.clear();
                pending.append(&mut tok.deferred);
                for &f in &tok.frontier {
                    pending.extend_from_slice(tree.children(f));
                }
                if let RoundDelta::Changed(nodes) = delta {
                    pending.extend_from_slice(nodes);
                }

                // Phase 2: resolve against the *pre-round* holder set.
                // `tok.deferred` is empty here and refills with this
                // round's fault-blocked candidates.
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
                for &y in &touched {
                    seen.remove(y);
                }
            }

            // Phase 3: commit. `fresh` becomes the next frontier; the old
            // frontier vector is recycled as the next token's scratch.
            for &y in &fresh {
                tok.holders.insert(y);
            }
            std::mem::swap(&mut tok.frontier, &mut fresh);
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
        self.round += 1;
    }

    /// Token-loss fault: node `y` drops every tracked token except its
    /// own — the sparse mirror of
    /// [`BroadcastState::forget`](crate::BroadcastState::forget) /
    /// [`TrackedTokens::forget`](crate::TrackedTokens::forget). The
    /// victim re-enters each affected token's `deferred` list so it can
    /// be re-informed as soon as its parent holds the token again.
    ///
    /// # Panics
    ///
    /// Panics if `y >= n`.
    pub fn forget(&mut self, y: NodeId) {
        assert!(y < self.n, "node {y} out of range for n = {}", self.n);
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

enum SourceKind {
    Static(RootedTree),
    Sequence(Vec<RootedTree>),
    Seeded { seed: u64, n: usize },
}

/// A state-oblivious tree source for the frontier engine that also
/// reports each round's [`RoundDelta`]. (The dense [`TreeSource`] reads
/// the full [`BroadcastState`](crate::BroadcastState), which a sparse run
/// cannot afford.) Every variant has an exact dense twin
/// ([`FrontierSource::dense_twin`]), the differential suite's oracle.
///
/// # Examples
///
/// ```
/// use treecast_core::frontier::{run_workload_frontier, FrontierSource};
/// use treecast_core::{Broadcast, SimulationConfig};
/// use treecast_trees::generators;
///
/// let n = 1000;
/// let mut src = FrontierSource::fixed(generators::path(n));
/// let report = run_workload_frontier(n, &mut src, &Broadcast, SimulationConfig::for_n(n));
/// assert_eq!(report.completion_time, Some((n - 1) as u64));
/// ```
pub struct FrontierSource {
    kind: SourceKind,
    label: String,
    rng: Option<StdRng>,
    /// The seeded variant's tree of the current round.
    current: Option<RootedTree>,
    /// The re-rooted tree of the current round, when a reroot was asked.
    effective: Option<RootedTree>,
    rounds_started: u64,
    seq_idx: usize,
    /// Base-tree path of the previous round's reroot (nodes whose parent
    /// still differs from the base).
    prev_reroot_path: Vec<NodeId>,
    changed_buf: Vec<NodeId>,
}

/// The seeded source's dense twin: the same uniform trees from the same
/// RNG stream, drawn one per round.
struct SeededTwin {
    n: usize,
    rng: StdRng,
    label: String,
}

impl TreeSource for SeededTwin {
    fn next_tree(&mut self, _state: &crate::BroadcastState) -> RootedTree {
        random::uniform(self.n, &mut self.rng)
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

/// One round as produced by [`FrontierSource::next_round`]: the effective
/// tree plus how it differs from the previous round's.
#[derive(Debug)]
pub struct FrontierRound<'a> {
    /// The round's (possibly re-rooted) tree.
    pub tree: &'a RootedTree,
    /// Difference against the previous round's effective tree.
    pub delta: RoundDelta<'a>,
}

impl FrontierSource {
    fn with_kind(kind: SourceKind, label: String) -> Self {
        FrontierSource {
            kind,
            label,
            rng: None,
            current: None,
            effective: None,
            rounds_started: 0,
            seq_idx: 0,
            prev_reroot_path: Vec::new(),
            changed_buf: Vec::new(),
        }
    }

    /// Repeats one fixed tree every round — the frontier twin of
    /// [`StaticSource`]. Quiet rounds report [`RoundDelta::Unchanged`],
    /// so a static-path broadcast runs in O(1) per round.
    pub fn fixed(tree: RootedTree) -> Self {
        let label = format!("static({})", summarize(&tree));
        Self::with_kind(SourceKind::Static(tree), label)
    }

    /// Plays a fixed schedule, then repeats the last tree — the frontier
    /// twin of [`SequenceSource`]. Rounds that advance the schedule
    /// report [`RoundDelta::All`]; the repeating tail is
    /// [`RoundDelta::Unchanged`].
    ///
    /// # Panics
    ///
    /// Panics if `trees` is empty.
    pub fn sequence(trees: Vec<RootedTree>) -> Self {
        assert!(!trees.is_empty(), "schedule needs at least one tree");
        let label = format!("sequence(len={})", trees.len());
        Self::with_kind(SourceKind::Sequence(trees), label)
    }

    /// A fresh uniform random tree ([`random::uniform`]) each round,
    /// deterministic in the seed. Every round is [`RoundDelta::All`].
    pub fn seeded(n: usize, seed: u64) -> Self {
        let label = format!("seeded-uniform(seed={seed})");
        Self::with_kind(SourceKind::Seeded { seed, n }, label)
    }

    /// Report name, matching the dense twin's where one exists.
    pub fn name(&self) -> String {
        self.label.clone()
    }

    /// A dense [`TreeSource`] producing the identical tree sequence, for
    /// as many rounds as the run plays (`_max_rounds` bounds nothing).
    /// The seeded twin replays the RNG from the seed.
    pub fn dense_twin(&self, _max_rounds: u64) -> Box<dyn TreeSource> {
        match &self.kind {
            SourceKind::Static(tree) => Box::new(StaticSource::new(tree.clone())),
            SourceKind::Sequence(trees) => Box::new(SequenceSource::new(trees.clone())),
            SourceKind::Seeded { seed, n } => Box::new(SeededTwin {
                n: *n,
                rng: StdRng::seed_from_u64(*seed),
                label: self.name(),
            }),
        }
    }

    /// The current round's base (pre-reroot) tree.
    fn base(&self) -> &RootedTree {
        match &self.kind {
            SourceKind::Static(tree) => tree,
            SourceKind::Sequence(trees) => &trees[self.seq_idx],
            SourceKind::Seeded { .. } => self
                .current
                .as_ref()
                // analyze: allow(panic): next_round populates the seeded source's current tree before any access
                .expect("seeded source advanced by next_round"),
        }
    }

    /// Produces the next round's tree and its delta, applying the fault
    /// layer's re-rooting demand (the frontier mirror of the dense
    /// runner's `tree.rerooted(r)` step).
    ///
    /// # Panics
    ///
    /// Panics if the source's trees are not of size `n` or `reroot` names
    /// a node `>= n`.
    pub fn next_round(&mut self, n: usize, reroot: Option<NodeId>) -> FrontierRound<'_> {
        let first = self.rounds_started == 0;
        self.rounds_started += 1;
        // Between two rounds over the same base, parents can differ only
        // on the previous and current reroot paths. A new base invalidates
        // everything. The first round needs no delta at all (the initial
        // frontier *is* the source set), except that a freshly drawn tree
        // is cheaper stepped whole: that reads no children index.
        let use_all = match &mut self.kind {
            SourceKind::Static(tree) => {
                assert_eq!(tree.n(), n, "source tree size mismatch");
                false
            }
            SourceKind::Sequence(trees) => {
                let idx = ((self.rounds_started - 1) as usize).min(trees.len() - 1);
                assert_eq!(trees[idx].n(), n, "source tree size mismatch");
                let new_base = !first && idx != self.seq_idx;
                self.seq_idx = idx;
                new_base
            }
            SourceKind::Seeded { seed, n: sn } => {
                assert_eq!(*sn, n, "seeded source built for a different n");
                let rng = self.rng.get_or_insert_with(|| StdRng::seed_from_u64(*seed));
                match &mut self.current {
                    Some(tree) => random::uniform_into(tree, n, rng),
                    None => self.current = Some(random::uniform(n, rng)),
                }
                true
            }
        };

        // Nodes whose parent this round's reroot changes, in base-tree
        // coordinates. In a first round over a fixed base, feeding the
        // reroot path is harmless and keeps the cases uniform.
        let curr_path: Vec<NodeId> = match reroot {
            Some(r) => self.base().path_to_root(r),
            None => Vec::new(),
        };

        self.changed_buf.clear();
        if !use_all {
            self.changed_buf.extend_from_slice(&self.prev_reroot_path);
            self.changed_buf.extend_from_slice(&curr_path);
        }
        self.prev_reroot_path = curr_path;
        self.effective = reroot.map(|r| self.base().rerooted(r));

        let tree = self.effective.as_ref().unwrap_or_else(|| self.base());
        let delta = if use_all {
            RoundDelta::All
        } else if self.changed_buf.is_empty() {
            RoundDelta::Unchanged
        } else {
            RoundDelta::Changed(&self.changed_buf)
        };
        FrontierRound { tree, delta }
    }
}

/// The frontier engine for [`drive`]: a [`FrontierState`] over the
/// workload's tokens, stepped along a [`FrontierSource`] with the offline
/// nodes masked, then the losses applied.
pub struct FrontierEngine<'a> {
    source: &'a mut FrontierSource,
    state: FrontierState,
}

impl<'a> FrontierEngine<'a> {
    /// A fresh `n`-process engine for `workload`'s tokens.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or a workload source is out of range.
    pub fn new<W: Workload + ?Sized>(
        n: usize,
        source: &'a mut FrontierSource,
        workload: &W,
    ) -> Self {
        let sources: Vec<NodeId> = match workload.sources(n) {
            SourceSet::All => (0..n).collect(),
            SourceSet::Nodes(nodes) => nodes,
        };
        FrontierEngine {
            source,
            state: FrontierState::new(n, &sources),
        }
    }
}

impl RoundEngine for FrontierEngine<'_> {
    type State = FrontierState;

    fn step(&mut self, faults: &RoundFaults) -> Option<(&RootedTree, &FrontierState)> {
        let round = self.source.next_round(self.state.n(), faults.root);
        self.state
            .apply_round(round.tree, round.delta, &faults.offline);
        for &y in &faults.losses {
            self.state.forget(y);
        }
        Some((round.tree, &self.state))
    }

    fn progress(&self) -> WorkloadProgress {
        self.state.progress()
    }

    fn source_name(&self) -> String {
        self.source.name()
    }
}

/// Runs `source` against `workload` on the frontier engine — the sparse
/// counterpart of [`crate::run_workload`], with identical report
/// semantics (and, like it, an empty `fault_log`).
///
/// # Examples
///
/// ```
/// use treecast_core::frontier::{run_workload_frontier, FrontierSource};
/// use treecast_core::{run_workload, Broadcast, SimulationConfig, StaticSource};
/// use treecast_trees::generators;
///
/// let n = 64;
/// let cfg = SimulationConfig::for_n(n);
/// let sparse = run_workload_frontier(
///     n,
///     &mut FrontierSource::fixed(generators::path(n)),
///     &Broadcast,
///     cfg,
/// );
/// let dense = run_workload(n, &mut StaticSource::new(generators::path(n)), &Broadcast, cfg);
/// assert_eq!(sparse.completion_time, dense.completion_time);
/// assert_eq!(sparse.rounds, dense.rounds);
/// ```
///
/// # Panics
///
/// Panics if `n == 0`, a source node is out of range, or the tree source
/// produces a tree of the wrong size.
pub fn run_workload_frontier<W: Workload + ?Sized>(
    n: usize,
    source: &mut FrontierSource,
    workload: &W,
    config: SimulationConfig,
) -> WorkloadReport {
    let mut engine = FrontierEngine::new(n, source, workload);
    drive(&mut engine, workload, &mut NoFaults, config, false, &mut ())
}

/// Runs `source` against `workload` under `faults` on the frontier engine
/// — the sparse counterpart of [`crate::run_workload_faulty`], with a
/// bit-identical [`WorkloadReport::fault_log`].
///
/// # Panics
///
/// Panics if `n == 0`, a fault names a node `>= n`, or the tree source
/// produces a tree of the wrong size.
pub fn run_workload_frontier_faulty<W, F>(
    n: usize,
    source: &mut FrontierSource,
    workload: &W,
    faults: &mut F,
    config: SimulationConfig,
) -> WorkloadReport
where
    W: Workload + ?Sized,
    F: FaultModel + ?Sized,
{
    let mut engine = FrontierEngine::new(n, source, workload);
    drive(&mut engine, workload, faults, config, true, &mut ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{run_workload_faulty, FaultSchedule, RotatingRoot, SeededFaults};
    use crate::workload::{run_workload, Broadcast, Gossip, KBroadcast};
    use treecast_trees::generators;

    fn assert_reports_match(sparse: &WorkloadReport, dense: &WorkloadReport, ctx: &str) {
        assert_eq!(sparse.completion_time, dense.completion_time, "{ctx}");
        assert_eq!(sparse.broadcast_time, dense.broadcast_time, "{ctx}");
        assert_eq!(sparse.rounds, dense.rounds, "{ctx}");
        assert_eq!(sparse.disseminated, dense.disseminated, "{ctx}");
        assert_eq!(sparse.tokens, dense.tokens, "{ctx}");
        assert_eq!(sparse.source, dense.source, "{ctx}");
    }

    #[test]
    fn static_path_matches_dense_broadcast() {
        for n in [2usize, 7, 64, 65] {
            let cfg = SimulationConfig::for_n(n);
            let mut src = FrontierSource::fixed(generators::path(n));
            let mut twin = src.dense_twin(cfg.max_rounds);
            let sparse = run_workload_frontier(n, &mut src, &Broadcast, cfg);
            let dense = run_workload(n, &mut twin, &Broadcast, cfg);
            assert_reports_match(&sparse, &dense, &format!("path n = {n}"));
        }
    }

    #[test]
    fn rotating_stars_match_dense_gossip() {
        let n = 9;
        let cfg = SimulationConfig::for_n(n);
        let schedule: Vec<_> = (0..n).map(|c| generators::star_with_center(n, c)).collect();
        let mut src = FrontierSource::sequence(schedule);
        let mut twin = src.dense_twin(cfg.max_rounds);
        let sparse = run_workload_frontier(n, &mut src, &Gossip, cfg);
        let dense = run_workload(n, &mut twin, &Gossip, cfg);
        assert_reports_match(&sparse, &dense, "rotating stars");
    }

    #[test]
    fn seeded_source_twin_replays_the_same_trees() {
        let n = 33;
        let cfg = SimulationConfig::for_n(n).with_max_rounds(48);
        let mut src = FrontierSource::seeded(n, 0xF007);
        let mut twin = src.dense_twin(cfg.max_rounds);
        let sparse = run_workload_frontier(n, &mut src, &Gossip, cfg);
        let dense = run_workload(n, &mut twin, &Gossip, cfg);
        assert_reports_match(&sparse, &dense, "seeded gossip");
    }

    #[test]
    fn faulty_run_matches_dense_and_replays() {
        let n = 24;
        let cfg = SimulationConfig::for_n(n).with_max_rounds(64);
        let mut model = SeededFaults::new(0xFE17)
            .with_token_loss(15)
            .with_dropout(10, 2)
            .with_root_changes(25);
        let mut src = FrontierSource::seeded(n, 42);
        let mut twin = src.dense_twin(cfg.max_rounds);
        let sparse =
            run_workload_frontier_faulty(n, &mut src, &KBroadcast::new(3), &mut model, cfg);
        let mut replay = FaultSchedule::replay(&sparse.fault_log);
        let dense = run_workload_faulty(n, &mut twin, &KBroadcast::new(3), &mut replay, cfg);
        assert_reports_match(&sparse, &dense, "seeded faults");
        assert_eq!(sparse.fault_log, dense.fault_log, "fault logs must replay");
    }

    #[test]
    fn rotating_root_on_static_path_matches_dense() {
        let n = 12;
        let cfg = SimulationConfig::for_n(n);
        let mut src = FrontierSource::fixed(generators::path(n));
        let mut twin = src.dense_twin(cfg.max_rounds);
        let sparse =
            run_workload_frontier_faulty(n, &mut src, &Broadcast, &mut RotatingRoot::new(2), cfg);
        let dense = run_workload_faulty(n, &mut twin, &Broadcast, &mut RotatingRoot::new(2), cfg);
        assert_reports_match(&sparse, &dense, "rotating root");
        assert_eq!(sparse.fault_log, dense.fault_log);
    }

    #[test]
    fn forget_reopens_a_full_token() {
        let n = 5;
        let mut state = FrontierState::new(n, &[0]);
        let star = generators::star(n);
        state.apply_round(&star, RoundDelta::Unchanged, &[]);
        assert_eq!(state.disseminated_count(), 1);
        state.forget(3);
        assert_eq!(state.disseminated_count(), 0);
        assert!(!state.holders(0).contains(3));
        state.apply_round(&star, RoundDelta::Unchanged, &[]);
        assert_eq!(state.disseminated_count(), 1, "deferred node re-informed");
    }

    #[test]
    fn offline_nodes_defer_but_keep_memory() {
        let n = 4;
        let mut state = FrontierState::new(n, &[0]);
        let path = generators::path(n);
        state.apply_round(&path, RoundDelta::Unchanged, &[1]);
        // Edge (0, 1) was masked: nothing moved, node 1 keeps its memory.
        assert_eq!(state.holders(0).len(), 1);
        state.apply_round(&path, RoundDelta::Unchanged, &[]);
        assert!(state.holders(0).contains(1), "deferred candidate caught up");
    }

    #[test]
    fn static_path_frontier_stays_constant_size() {
        // The O(1)-per-round claim: on the static path the per-round
        // candidate set never exceeds a couple of nodes.
        let n = 512;
        let mut src = FrontierSource::fixed(generators::path(n));
        let mut state = FrontierState::new(n, &[0]);
        for _ in 0..n - 1 {
            let round = src.next_round(n, None);
            state.apply_round(round.tree, round.delta, &[]);
            assert!(state.tokens[0].frontier.len() <= 1);
            assert!(state.tokens[0].deferred.is_empty());
        }
        assert!(state.holders(0).is_full());
    }

    #[test]
    fn single_node_completes_at_round_zero() {
        let mut src = FrontierSource::fixed(generators::star(1));
        let r = run_workload_frontier(1, &mut src, &Gossip, SimulationConfig::for_n(1));
        assert_eq!(r.completion_time, Some(0));
        assert_eq!(r.rounds, 0);
    }
}
