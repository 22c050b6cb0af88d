//! The frontier-sparse engine: million-node runs in O(newly informed)
//! work per round.
//!
//! The dense engine carries the `n × n` heard-from matrix, O(n²/64) words
//! of work per round. A run that tracks `k` tokens needs only that
//! matrix's `k` source columns: one node-major array of ⌈k/64⌉ words per
//! node, in which row `y` holds the tracked tokens `y` has. Along a round
//! tree `y` receives exactly its parent's row, so a round only needs to
//! examine
//!
//! * last round's fault-**deferred** nodes,
//! * the children of last round's **frontier** (the nodes whose row
//!   grew), and
//! * the nodes whose parent changed (the **delta** the source reports).
//!
//! Nothing else can change (see `apply_round`): on a static tree a round
//! costs O(frontier).
//!
//! When the whole tree changes ([`RoundDelta::All`], e.g. a fresh uniform
//! tree every round) every node would be a candidate, so such a round is
//! one double-buffered pass over the rows instead,
//! `next[y] = cur[y] | cur[parent(y)]`, with `parent(y) = y` across a
//! masked edge. The pass reads the parent array only, so a freshly
//! sampled tree never builds its children index.
//!
//! # Exactness and scale
//!
//! With [`SourceSet::All`] workloads all `n` tokens are tracked: exactly
//! the dense semantics, pinned round-for-round (faults included) by
//! `tests/frontier_differential.rs`. That is Ω(n²) in the worst case, so
//! n = 10⁶ experiments track [`SourceSet::Nodes`]
//! ([`crate::KSourceBroadcast`]), which the same suite pins too. For
//! those, and only those, [`WorkloadReport::broadcast_time`] is the first
//! round a *tracked* token is held by everyone, where the dense engine
//! counts any of the `n` (ROADMAP item 10, finding 1).

use rand::rngs::StdRng;
use rand::SeedableRng;
use treecast_bitmatrix::BitSet;
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
    /// sound. No candidate lists: one pass over every node's row (see
    /// [`FrontierState::apply_round`]).
    All,
}

/// Which tracked tokens everyone holds and, while counted, how many
/// nodes hold each.
#[derive(Debug, Clone)]
struct Tally {
    n: usize,
    /// The tokens held by every node: the AND of all rows.
    everyone: Vec<u64>,
    /// Holders per token, valid while `counted`. Quiet rounds and losses
    /// keep it; a whole-tree round only ANDs its rows into `everyone`, and
    /// the next quiet round recounts.
    held: Vec<usize>,
    counted: bool,
}

impl Tally {
    fn disseminated(&self) -> usize {
        self.everyone.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Makes `held` valid again after a whole-tree round: O(n·⌈k/64⌉)
    /// plus one step per held token.
    fn recount(&mut self, rows: &[u64], words: usize) {
        if self.counted {
            return;
        }
        self.held.fill(0);
        for row in rows.chunks_exact(words) {
            for (w, &bits) in row.iter().enumerate() {
                tokens_in(w, bits).for_each(|i| self.held[i] += 1);
            }
        }
        self.counted = true;
    }

    /// Counts one more holder of each token in `bits`, word `w` of a row.
    /// Needs `held` counted.
    fn gain(&mut self, w: usize, bits: u64) {
        for i in tokens_in(w, bits) {
            self.held[i] += 1;
            if self.held[i] == self.n {
                self.everyone[w] |= 1 << (i % 64);
            }
        }
    }

    /// Counts one holder less of each token in `bits`, word `w` of a row.
    fn lose(&mut self, w: usize, bits: u64) {
        self.everyone[w] &= !bits;
        if self.counted {
            tokens_in(w, bits).for_each(|i| self.held[i] -= 1);
        }
    }
}

/// The tokens whose bits are set in `bits`, word `w` of a row.
fn tokens_in(w: usize, mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let i = (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize);
        bits &= bits.wrapping_sub(1);
        i
    })
}

/// One whole-tree round over the rows: `next[y] = cur[y] | cur[parent(y)]`,
/// `words` words per row, ANDing every new row into `everyone`. Leaves in
/// `grown` the nodes whose row grew, in ascending order.
fn whole_tree_pass(
    cur: &[u64],
    next: &mut [u64],
    words: usize,
    parent: impl Fn(NodeId) -> NodeId,
    everyone: &mut [u64],
    grown: &mut Vec<NodeId>,
) {
    // Branch-free: every node is written at `len`, which advances past
    // it only if its row grew.
    grown.resize(next.len() / words, 0);
    let mut len = 0;
    if words == 1 {
        // At most 64 tokens (the common case): one word per node, the AND
        // in a register. The per-word loop below costs 2.5–4× more per
        // pass here, and a seeded n = 10⁴, k = 16 replica 1.3× more end
        // to end.
        let mut all = !0;
        for (y, out) in next.iter_mut().enumerate() {
            let c = cur[y];
            let gain = cur[parent(y)] & !c;
            *out = c | gain;
            all &= *out;
            grown[len] = y;
            len += usize::from(gain != 0);
        }
        everyone[0] = all;
    } else {
        everyone.fill(!0);
        for (y, out) in next.chunks_exact_mut(words).enumerate() {
            let own = &cur[y * words..][..words];
            let from = &cur[parent(y) * words..][..words];
            let mut gains = 0;
            for (((out, all), &c), &p) in out.iter_mut().zip(&mut *everyone).zip(own).zip(from) {
                gains |= p & !c;
                *out = c | p;
                *all &= *out;
            }
            grown[len] = y;
            len += usize::from(gains != 0);
        }
    }
    grown.truncate(len);
}

/// Whether row `p` holds a token that row `y` lacks.
fn row_gains(rows: &[u64], words: usize, p: NodeId, y: NodeId) -> bool {
    let (from, own) = (&rows[p * words..][..words], &rows[y * words..][..words]);
    from.iter().zip(own).any(|(&p, &c)| p & !c != 0)
}

/// The frontier-sparse dissemination state, node-major: row `y` holds the
/// tracked tokens `y` has, one bit per token in ⌈k/64⌉ words, beside one
/// node frontier and one deferred list.
///
/// Observationally equivalent to the dense engine's state on the tracked
/// tokens — the source columns of the full
/// [`BroadcastState`](crate::BroadcastState) (token `i` ↔ column
/// `sources[i]`) — but a round costs O(candidates), or one O(n·⌈k/64⌉)
/// pass for a whole new tree, instead of O(n²/64).
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
    /// Words per row: ⌈k/64⌉.
    words: usize,
    /// Row `y` is `rows[y * words..][..words]`; bit `i` says that `y`
    /// holds token `i`.
    rows: Vec<u64>,
    /// `(source, token)` pairs sorted by node: the tokens a loss never
    /// clears.
    own: Vec<(NodeId, usize)>,
    tally: Tally,
    /// Nodes whose row grew in the last applied round (before any round,
    /// the sources).
    frontier: Vec<NodeId>,
    /// Nodes that a fault (an offline endpoint or a token loss) kept from
    /// a token their parent held; the next round re-examines them.
    deferred: Vec<NodeId>,
    /// Scratch: a whole-tree round's next rows (the double buffer).
    spare: Vec<u64>,
    /// Scratch: a quiet round's candidate list.
    pending: Vec<NodeId>,
    /// Scratch: a quiet round's candidate dedup, cleared through
    /// `pending` so that clearing costs O(candidates), not O(n/64).
    seen: BitSet,
    /// Scratch: the nodes a quiet round informs (the next frontier).
    fresh: Vec<NodeId>,
    /// Scratch: their new tokens, `words` per node of `fresh`.
    gains: Vec<u64>,
    /// Scratch: a faulty whole-tree round's effective parent map.
    round_parents: Vec<NodeId>,
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
        let k = sources.len();
        let words = k.div_ceil(64);
        let mut rows = vec![0; n * words];
        let mut own = Vec::with_capacity(k);
        for (i, &s) in sources.iter().enumerate() {
            assert!(s < n, "source {s} out of range for n = {n}");
            rows[s * words + i / 64] |= 1 << (i % 64);
            own.push((s, i));
        }
        own.sort_unstable();
        let mut frontier = sources.to_vec();
        frontier.sort_unstable();
        frontier.dedup();
        let everyone = if n == 1 { rows.clone() } else { vec![0; words] };
        FrontierState {
            n,
            round: 0,
            words,
            rows,
            own,
            tally: Tally {
                n,
                everyone,
                held: vec![1; k],
                counted: true,
            },
            frontier,
            deferred: Vec::new(),
            spare: Vec::new(),
            pending: Vec::new(),
            seen: BitSet::new(n),
            fresh: Vec::new(),
            gains: Vec::new(),
            round_parents: Vec::new(),
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

    /// The holder set of token `i`, collected from the rows (O(n)).
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a tracked token.
    pub fn holders(&self, i: usize) -> BitSet {
        assert!(i < self.tally.held.len(), "token {i} is not tracked");
        let (w, bit) = (i / 64, 1 << (i % 64));
        let rows = self.rows.chunks_exact(self.words);
        let holders = rows.enumerate().filter(|(_, row)| row[w] & bit != 0);
        BitSet::from_indices(self.n, holders.map(|(y, _)| y))
    }

    /// The nodes whose row grew in the last applied round (before any
    /// round, the sources), in no particular order.
    pub fn frontier(&self) -> &[NodeId] {
        &self.frontier
    }

    /// The nodes that a fault (an offline endpoint or a token loss) kept
    /// from a token their parent held; the next round re-examines them.
    /// In no particular order, possibly repeated.
    pub fn deferred(&self) -> &[NodeId] {
        &self.deferred
    }

    /// Tokens currently held by every node (maintained incrementally;
    /// equal to recounting the rows).
    #[inline]
    pub fn disseminated_count(&self) -> usize {
        self.tally.disseminated()
    }

    /// The progress summary the workload predicates consume.
    pub fn progress(&self) -> WorkloadProgress {
        WorkloadProgress {
            n: self.n,
            round: self.round,
            tokens: self.tally.held.len(),
            disseminated: self.tally.disseminated(),
        }
    }

    /// Checks the between-round invariants; a noop in release builds.
    ///
    /// Every source holds its own tokens, no row has a bit past the last
    /// token, the tokens everyone holds are the AND of the rows, the
    /// holder counts (while counted) equal a recount of the rows, the
    /// frontier and deferred nodes are in range, and the `seen` dedup
    /// bits are clear.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if any invariant is violated.
    pub fn debug_validate(&self) {
        #[cfg(debug_assertions)]
        {
            let k = self.tally.held.len();
            let mut held = vec![0; k];
            let mut everyone = vec![!0u64; self.words];
            for (y, row) in self.rows.chunks_exact(self.words).enumerate() {
                for (w, &bits) in row.iter().enumerate() {
                    tokens_in(w, bits).for_each(|i| held[i] += 1);
                    everyone[w] &= bits;
                }
                if !k.is_multiple_of(64) {
                    assert_eq!(
                        row[self.words - 1] >> (k % 64),
                        0,
                        "node {y}: bits past the last token"
                    );
                }
            }
            for &(s, i) in &self.own {
                assert!(
                    self.rows[s * self.words + i / 64] >> (i % 64) & 1 == 1,
                    "source {s} lost its own token {i}"
                );
            }
            assert_eq!(
                everyone, self.tally.everyone,
                "the disseminated tokens disagree with the AND of the rows"
            );
            if self.tally.counted {
                assert_eq!(
                    held, self.tally.held,
                    "holder counts disagree with the rows"
                );
            }
            for &v in self.frontier.iter().chain(&self.deferred) {
                assert!(v < self.n, "frontier or deferred node {v} out of range");
            }
            assert!(
                self.seen.is_empty(),
                "seen dedup bits not scrubbed between rounds"
            );
        }
    }

    /// Applies one synchronous round along `tree` (self-loops implied),
    /// with the edges incident to the sorted `offline` nodes masked out —
    /// the frontier mirror of the dense engine's masked round.
    ///
    /// # Cost
    ///
    /// [`RoundDelta::Unchanged`] and [`RoundDelta::Changed`] rounds
    /// examine O(candidates) rows of ⌈k/64⌉ words (below) and read the
    /// tree's children index. A [`RoundDelta::All`] round is one pass
    /// over all `n` rows, `next[y] = cur[y] | cur[parent(y)]`, into a
    /// retained second buffer. With nobody offline it reads
    /// `tree.parents()` directly; otherwise it first builds the effective
    /// parent map (`y` itself across a masked edge) and then scans the
    /// masked edges for the deferred nodes. It never reads the children
    /// index, and it ANDs the new rows to find the tokens everyone holds.
    /// A quiet round counts each new holder instead; the first one after
    /// a whole-tree round recounts the rows once (O(n·⌈k/64⌉)).
    ///
    /// # Correctness of the candidate set
    ///
    /// Between rounds, every node `y` whose parent `p` holds a token `y`
    /// lacks has `p` in the frontier or `y` in the deferred list (when
    /// the next tree differs, `y` is in the delta instead). A round keeps
    /// that true: an informed candidate receives all of `p`'s pre-round
    /// row, so afterwards `p` can hold more only through its own growth
    /// (`p` joins the frontier); a candidate whose edge is masked is
    /// deferred; a loss victim is deferred by [`FrontierState::forget`].
    /// So every node that can grow this round is a candidate. A
    /// whole-tree round needs no candidates and leaves exactly the grown
    /// nodes in the frontier and the masked children that miss a token
    /// deferred, so the induction carries on from it.
    ///
    /// A quiet round resolves every candidate against the pre-round rows
    /// and commits after the scan, and a whole-tree round writes into the
    /// second buffer, so a token travels exactly one hop per round.
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
        match delta {
            RoundDelta::All => self.step_whole_tree(tree, offline),
            _ => self.step_candidates(tree, delta, offline),
        }
        self.round += 1;
    }

    /// A [`RoundDelta::All`] round: one [`whole_tree_pass`], then the
    /// buffers swap.
    fn step_whole_tree(&mut self, tree: &RootedTree, offline: &[NodeId]) {
        let words = self.words;
        let parents = tree.parents();
        self.spare.resize(self.rows.len(), 0);
        self.frontier.clear();
        self.deferred.clear();
        if offline.is_empty() {
            let parent = |y: NodeId| parents[y].unwrap_or(y);
            let (rows, spare, everyone) = (&self.rows, &mut self.spare, &mut self.tally.everyone);
            whole_tree_pass(rows, spare, words, parent, everyone, &mut self.frontier);
        } else {
            round_parents_into(tree, offline, &mut self.round_parents);
            let round_parents = &self.round_parents;
            let parent = |y: NodeId| round_parents[y];
            let (rows, spare, everyone) = (&self.rows, &mut self.spare, &mut self.tally.everyone);
            whole_tree_pass(rows, spare, words, parent, everyone, &mut self.frontier);
            // A masked edge defers its child while the parent holds a
            // token the child lacks: an offline node itself, or an online
            // child of an offline node.
            for (y, (&p, &r)) in parents.iter().zip(round_parents).enumerate() {
                if p.is_some_and(|p| r == y && row_gains(rows, words, p, y)) {
                    self.deferred.push(y);
                }
            }
        }
        std::mem::swap(&mut self.rows, &mut self.spare);
        self.tally.counted = false;
    }

    /// An [`RoundDelta::Unchanged`] or [`RoundDelta::Changed`] round over
    /// the candidates deferred ∪ frontier children ∪ delta.
    fn step_candidates(&mut self, tree: &RootedTree, delta: RoundDelta<'_>, offline: &[NodeId]) {
        let words = self.words;
        let is_offline = |v: NodeId| offline.binary_search(&v).is_ok();
        self.tally.recount(&self.rows, words);

        // Phase 1: gather candidates.
        self.pending.clear();
        self.pending.append(&mut self.deferred);
        for &f in &self.frontier {
            self.pending.extend_from_slice(tree.children(f));
        }
        if let RoundDelta::Changed(nodes) = delta {
            self.pending.extend_from_slice(nodes);
        }

        // Phase 2: resolve against the pre-round rows. `deferred` is empty
        // here and refills with this round's fault-blocked candidates.
        self.fresh.clear();
        self.gains.clear();
        for &y in &self.pending {
            if !self.seen.insert(y) {
                continue;
            }
            let Some(p) = tree.parent(y) else {
                continue;
            };
            if !row_gains(&self.rows, words, p, y) {
                continue;
            }
            if is_offline(y) || is_offline(p) {
                self.deferred.push(y);
                continue;
            }
            let (from, own) = (
                &self.rows[p * words..][..words],
                &self.rows[y * words..][..words],
            );
            self.gains
                .extend(from.iter().zip(own).map(|(&p, &c)| p & !c));
            self.fresh.push(y);
        }
        for &y in &self.pending {
            self.seen.remove(y);
        }

        // Phase 3: commit. `fresh` becomes the next frontier.
        for (&y, gain) in self.fresh.iter().zip(self.gains.chunks_exact(words)) {
            let row = &mut self.rows[y * words..][..words];
            for (w, (row, &g)) in row.iter_mut().zip(gain).enumerate() {
                *row |= g;
                self.tally.gain(w, g);
            }
        }
        std::mem::swap(&mut self.frontier, &mut self.fresh);
    }

    /// Token-loss fault: node `y` drops every tracked token except its
    /// own — the sparse mirror of
    /// [`BroadcastState::forget`](crate::BroadcastState::forget) /
    /// [`TrackedTokens::forget`](crate::TrackedTokens::forget). A victim
    /// that lost anything joins the deferred list, so it is re-informed
    /// as soon as its parent holds the tokens again.
    ///
    /// # Panics
    ///
    /// Panics if `y >= n`.
    pub fn forget(&mut self, y: NodeId) {
        assert!(y < self.n, "node {y} out of range for n = {}", self.n);
        let own = &self.own[self.own.partition_point(|&(s, _)| s < y)..];
        let own = &own[..own.partition_point(|&(s, _)| s == y)];
        let mut lost_any = false;
        for (w, row) in self.rows[y * self.words..][..self.words]
            .iter_mut()
            .enumerate()
        {
            let keep = own
                .iter()
                .filter(|&&(_, i)| i / 64 == w)
                .fold(0, |keep, &(_, i)| keep | 1 << (i % 64));
            let lost = *row & !keep;
            *row &= keep;
            self.tally.lose(w, lost);
            lost_any |= lost != 0;
        }
        if lost_any {
            self.deferred.push(y);
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
            #[expect(
                clippy::expect_used,
                reason = "next_round populates the seeded source's current tree before any access"
            )]
            SourceKind::Seeded { .. } => self
                .current
                .as_ref()
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
            assert!(state.frontier().len() <= 1);
            assert!(state.deferred().is_empty());
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
