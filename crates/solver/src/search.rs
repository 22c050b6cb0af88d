//! The exact search: `t*(T_n)` as a longest path over product-graph states.
//!
//! Because every round tree carries self-loops, states grow monotonically
//! (`S ⊆ S∘T`), and the paper's strict-progress observation means every
//! pre-broadcast round adds at least one edge — so the reachable state
//! space is a DAG **graded by edge count** and the recursion
//!
//! ```text
//! L(S) = 0                          if S has a broadcast witness
//! L(S) = 1 + max_{T ∈ T_n} L(S∘T)  otherwise
//! ```
//!
//! terminates with `t*(T_n) = L(I)`. The engine exploits the grading
//! directly instead of recursing: an **iterative layered search**.
//!
//! 1. **Forward discovery** walks popcount layers upward from the start
//!    state. Each layer's states are sharded across threads
//!    (`std::thread::scope`, mirroring the tournament runner); every
//!    worker expands its shard with a [`SuccessorGen`] — distinct
//!    ⊆-minimal successors streamed with an early witness cut — and
//!    canonicalizes them ([`CanonMode`]). The merge deduplicates against a
//!    compact open-addressing `u64 → u32` table and records each state's
//!    successor keys, so no state is ever expanded twice.
//! 2. **Backward value propagation** then sweeps the layers in decreasing
//!    popcount. All successors of a state sit in strictly higher layers,
//!    so `L(S) = 1 + max L(succ)` is a pure table lookup (an empty
//!    successor list means every round tree broadcasts immediately:
//!    `L(S) = 1`).
//!
//! No recursion anywhere (the old descent risked stack overflow at depth
//! `~2.5n`), results are bit-identical for any thread count (merges run in
//! shard order), and the table is sized for tens of millions of states.

use treecast_core::{run_workload, Broadcast, SequenceSource, SimulationConfig};
use treecast_trees::{generators, RootedTree};

use crate::canon::{canonicalize, CanonMode};
use crate::pool::SuccessorGen;
use crate::state::{apply_tree, has_witness, identity_state, transition_edges};

/// Configuration for [`solve_with`].
#[derive(Debug, Clone, Copy)]
pub struct SolveOptions {
    /// Isomorphism-reduction policy (default [`CanonMode::Exact`]).
    pub canon: CanonMode,
    /// Abort if the state table exceeds this many states.
    pub max_states: usize,
    /// Skip extracting an optimal schedule (saves the final descent).
    pub skip_schedule: bool,
    /// Worker threads for layer expansion and valuation
    /// (0 = all available).
    pub threads: usize,
    /// Abort if a single popcount layer exceeds this many states — an
    /// early-warning guard that trips mid-run, long before
    /// [`SolveOptions::max_states`] would. (It bounds the widest layer's
    /// state list, not total memory: the successor-key arrays retained
    /// across *all* layers for the backward pass are the larger share of
    /// the working set.)
    pub layer_budget: usize,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            canon: CanonMode::Exact,
            max_states: 50_000_000,
            skip_schedule: false,
            threads: 0,
            layer_budget: usize::MAX,
        }
    }
}

/// Failure modes of the exact solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// `n` outside the supported `1..=8`.
    UnsupportedN {
        /// The requested size.
        n: usize,
    },
    /// The state table outgrew [`SolveOptions::max_states`].
    StateLimit {
        /// The configured limit.
        limit: usize,
    },
    /// One popcount layer outgrew [`SolveOptions::layer_budget`].
    LayerLimit {
        /// The offending layer (its edge count).
        layer: usize,
        /// Number of states in that layer.
        size: usize,
        /// The configured budget.
        budget: usize,
    },
}

impl core::fmt::Display for SolveError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            SolveError::UnsupportedN { n } => {
                write!(f, "exact solving supports 1 ≤ n ≤ 8, got {n}")
            }
            SolveError::StateLimit { limit } => {
                write!(
                    f,
                    "state limit {limit} exceeded; raise SolveOptions::max_states"
                )
            }
            SolveError::LayerLimit {
                layer,
                size,
                budget,
            } => {
                write!(
                    f,
                    "layer {layer} holds {size} states, over the budget {budget}; \
                     raise SolveOptions::layer_budget"
                )
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// Search statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Distinct (canonical) states in the table — recomputed *after*
    /// schedule extraction, which may value additional states.
    pub states_explored: usize,
    /// Successor keys that were already present in the table.
    pub memo_hits: u64,
    /// Successors discarded by dominance pruning (`S₁ ⊆ S₂ ⇒
    /// L(S₁) ≥ L(S₂)`, so only ⊆-minimal successors are kept).
    pub dominated_pruned: u64,
    /// Raw successor evaluations — realizable successor vectors emitted by
    /// the generator, before cross-root deduplication (the old recursive
    /// solver counted one per *tree* here; the generator never enumerates
    /// duplicate trees).
    pub transitions: u64,
    /// Expansion branches cut because a partial successor already carried
    /// a broadcast witness.
    pub witness_cuts: u64,
}

impl SolveStats {
    /// Accumulates another stats record into this one
    /// (`states_explored` is a table size, not a counter — left as-is).
    fn absorb(&mut self, other: &SolveStats) {
        self.memo_hits += other.memo_hits;
        self.dominated_pruned += other.dominated_pruned;
        self.transitions += other.transitions;
        self.witness_cuts += other.witness_cuts;
    }
}

/// The result of an exact solve.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// Number of processes.
    pub n: usize,
    /// The exact worst-case broadcast time `t*(T_n)`.
    pub t_star: u64,
    /// An optimal adversary schedule achieving `t_star` (empty when
    /// [`SolveOptions::skip_schedule`] was set or `t_star == 0`).
    pub schedule: Vec<RootedTree>,
    /// Search statistics.
    pub stats: SolveStats,
}

/// Computes the exact `t*(T_n)` with default options.
///
/// # Errors
///
/// Returns [`SolveError::UnsupportedN`] for `n == 0` or `n > 8`, or
/// [`SolveError::StateLimit`] if the state space outgrows the default cap.
///
/// # Examples
///
/// ```
/// use treecast_solver::solve;
/// // Two processes: one round of either tree broadcasts.
/// assert_eq!(solve(2)?.t_star, 1);
/// // Three processes: the optimum sits exactly on the ZSS lower bound.
/// let r3 = solve(3)?;
/// assert_eq!(r3.t_star, treecast_core::bounds::lower_bound(3));
/// # Ok::<(), treecast_solver::SolveError>(())
/// ```
pub fn solve(n: usize) -> Result<SolveResult, SolveError> {
    solve_with(n, SolveOptions::default())
}

/// Computes the exact `t*(T_n)` with explicit options.
///
/// # Errors
///
/// See [`solve`].
pub fn solve_with(n: usize, options: SolveOptions) -> Result<SolveResult, SolveError> {
    if !(1..=8).contains(&n) {
        return Err(SolveError::UnsupportedN { n });
    }
    let mut engine = Engine::new(n, options);
    let t_star = u64::from(engine.value_of(identity_state(n))?);

    let schedule = if options.skip_schedule || t_star == 0 {
        Vec::new()
    } else {
        extract_schedule(n, t_star, &mut engine)?
    };

    // After extraction, not before: a cache-splitting canonicalization
    // ([`CanonMode::Fast`]) can force extraction to value extra states,
    // and those must not be silently dropped from the reported stats.
    let mut stats = engine.stats;
    stats.states_explored = engine.table.len();

    Ok(SolveResult {
        n,
        t_star,
        schedule,
        stats,
    })
}

/// Sentinel for "discovered but not yet valued" table entries.
const UNVALUED: u32 = u32::MAX;

/// Compact open-addressing `u64 → u32` map (linear probing, power-of-two
/// capacity, key 0 reserved as the empty slot — packed states always
/// contain their diagonal self-loops, so no reachable state is 0).
///
/// A `HashMap<u64, u32>` spends most of its time hashing (SipHash) and
/// chasing its bucket layout; at tens of millions of states this flat
/// table is both several times faster and half the memory.
struct StateTable {
    keys: Vec<u64>,
    vals: Vec<u32>,
    len: usize,
    mask: usize,
}

impl StateTable {
    fn new() -> Self {
        let cap = 1 << 16;
        StateTable {
            keys: vec![0; cap],
            vals: vec![0; cap],
            len: 0,
            mask: cap - 1,
        }
    }

    /// Slot holding `key`, or the empty slot where it would go.
    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        debug_assert_ne!(key, 0, "key 0 is the empty-slot sentinel");
        let mut i = treecast_core::splitmix64(key) as usize & self.mask;
        loop {
            let k = self.keys[i];
            if k == key || k == 0 {
                return i;
            }
            i = (i + 1) & self.mask;
        }
    }

    #[inline]
    fn get(&self, key: u64) -> Option<u32> {
        let i = self.slot_of(key);
        if self.keys[i] == key {
            Some(self.vals[i])
        } else {
            None
        }
    }

    /// Single-probe insert of `key` as unvalued, refusing to grow the
    /// table past `max_keys`.
    fn insert_new(&mut self, key: u64, max_keys: usize) -> InsertOutcome {
        if (self.len + 1) * 5 > (self.mask + 1) * 3 {
            self.grow();
        }
        let i = self.slot_of(key);
        if self.keys[i] == key {
            return InsertOutcome::Present;
        }
        if self.len >= max_keys {
            return InsertOutcome::Full;
        }
        self.keys[i] = key;
        self.vals[i] = UNVALUED;
        self.len += 1;
        InsertOutcome::Inserted
    }

    /// Overwrites the value of an existing key.
    fn set(&mut self, key: u64, val: u32) {
        let i = self.slot_of(key);
        debug_assert_eq!(self.keys[i], key, "set of a key never inserted");
        self.vals[i] = val;
    }

    fn len(&self) -> usize {
        self.len
    }

    fn grow(&mut self) {
        let new_cap = (self.mask + 1) * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_cap]);
        let old_vals = std::mem::replace(&mut self.vals, vec![0; new_cap]);
        self.mask = new_cap - 1;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != 0 {
                let i = self.slot_of(k);
                self.keys[i] = k;
                self.vals[i] = v;
            }
        }
    }
}

/// What [`StateTable::insert_new`] did with a key.
#[derive(PartialEq, Eq)]
enum InsertOutcome {
    /// Newly added (as [`UNVALUED`]).
    Inserted,
    /// Already in the table — value untouched.
    Present,
    /// New, but the table already holds `max_keys` entries.
    Full,
}

/// One popcount layer of the graded state DAG: its states plus, per state,
/// the canonical keys of its kept successors (flat, offset-indexed).
#[derive(Default)]
struct Layer {
    states: Vec<u64>,
    succ_off: Vec<usize>,
    succ_keys: Vec<u64>,
}

/// Per-worker expansion output, merged in shard order for determinism.
struct WorkerOut {
    /// Canonical successor keys, concatenated per state.
    keys: Vec<u64>,
    /// Number of keys per state of the shard.
    counts: Vec<u32>,
    stats: SolveStats,
}

/// The layered solver: state table plus accumulated statistics.
struct Engine {
    n: usize,
    options: SolveOptions,
    threads: usize,
    table: StateTable,
    stats: SolveStats,
}

impl Engine {
    fn new(n: usize, options: SolveOptions) -> Self {
        let threads = if options.threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            options.threads
        };
        Engine {
            n,
            options,
            threads,
            table: StateTable::new(),
            stats: SolveStats::default(),
        }
    }

    /// `L(raw_state)`, running the layered passes if it is not yet valued.
    ///
    /// Every state the passes discover is valued, so later calls for any
    /// state in the explored cone are pure lookups — which is also what
    /// makes this safe to call again during schedule extraction.
    #[expect(
        clippy::expect_used,
        reason = "run_layers promises the seed is valued; a miss here is a graded-DAG ordering bug, not a recoverable state."
    )]
    fn value_of(&mut self, raw_state: u64) -> Result<u32, SolveError> {
        if has_witness(raw_state, self.n) {
            return Ok(0);
        }
        let key = canonicalize(raw_state, self.n, self.options.canon);
        if let Some(v) = self.table.get(key) {
            debug_assert_ne!(v, UNVALUED, "lookup raced a running pass");
            return Ok(v);
        }
        self.run_layers(key)?;
        Ok(self
            .table
            .get(key)
            .expect("layered passes value their seed"))
    }

    /// Forward discovery + backward value propagation from `seed_key`.
    fn run_layers(&mut self, seed_key: u64) -> Result<(), SolveError> {
        let n = self.n;
        let max_pc = n * n;
        let seed_pc = seed_key.count_ones() as usize;
        let mut layers: Vec<Layer> = (0..=max_pc).map(|_| Layer::default()).collect();
        self.insert_discovered(seed_key)?;
        layers[seed_pc].states.push(seed_key);

        // Forward: expand each layer once, recording successor keys.
        for pc in seed_pc..=max_pc {
            if layers[pc].states.is_empty() {
                continue;
            }
            if layers[pc].states.len() > self.options.layer_budget {
                return Err(SolveError::LayerLimit {
                    layer: pc,
                    size: layers[pc].states.len(),
                    budget: self.options.layer_budget,
                });
            }
            let states = std::mem::take(&mut layers[pc].states);
            let outputs = self.expand_layer(&states);

            let mut succ_off = Vec::with_capacity(states.len() + 1);
            let mut succ_keys = Vec::new();
            succ_off.push(0usize);
            for out in outputs {
                self.stats.absorb(&out.stats);
                let mut cursor = 0usize;
                for &count in &out.counts {
                    for &key in &out.keys[cursor..cursor + count as usize] {
                        // The grading the backward pass relies on: strict
                        // progress (Section 2) makes every successor
                        // strictly heavier.
                        assert!(
                            key.count_ones() as usize > pc,
                            "strict progress violated: successor in layer ≤ {pc}"
                        );
                        if self.insert_discovered(key)? {
                            layers[key.count_ones() as usize].states.push(key);
                        } else {
                            self.stats.memo_hits += 1;
                        }
                        succ_keys.push(key);
                    }
                    cursor += count as usize;
                    succ_off.push(succ_keys.len());
                }
            }
            let layer = &mut layers[pc];
            layer.states = states;
            layer.succ_off = succ_off;
            layer.succ_keys = succ_keys;
        }

        // Backward: all successors live in strictly higher layers, so each
        // layer's values are pure lookups once its successors are done.
        for pc in (seed_pc..=max_pc).rev() {
            if layers[pc].states.is_empty() {
                continue;
            }
            let values = value_layer(&self.table, &layers[pc], self.threads);
            for (&state, value) in layers[pc].states.iter().zip(values) {
                self.table.set(state, value);
            }
        }
        Ok(())
    }

    /// Table insert with the `max_states` guard; `true` if newly added.
    /// Already-valued states from earlier passes are left untouched.
    fn insert_discovered(&mut self, key: u64) -> Result<bool, SolveError> {
        match self.table.insert_new(key, self.options.max_states) {
            InsertOutcome::Inserted => Ok(true),
            InsertOutcome::Present => Ok(false),
            InsertOutcome::Full => Err(SolveError::StateLimit {
                limit: self.options.max_states,
            }),
        }
    }

    /// Expands one layer's states, sharded across `self.threads`.
    fn expand_layer(&self, states: &[u64]) -> Vec<WorkerOut> {
        let n = self.n;
        let canon = self.options.canon;
        let threads = self.threads.clamp(1, states.len().max(1));
        if threads == 1 {
            return vec![expand_chunk(n, canon, states)];
        }
        let chunk = states.len().div_ceil(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = states
                .chunks(chunk)
                .map(|shard| scope.spawn(move || expand_chunk(n, canon, shard)))
                .collect();
            handles
                .into_iter()
                .map(
                    #[expect(
                        clippy::expect_used,
                        reason = "re-raise a worker panic on the coordinating thread instead of returning a partial layer."
                    )]
                    |h| h.join().expect("solver expansion worker panicked"),
                )
                .collect()
        })
    }
}

/// Expands a shard of states with a thread-local generator.
fn expand_chunk(n: usize, canon: CanonMode, states: &[u64]) -> WorkerOut {
    let mut gen = SuccessorGen::new(n);
    let mut keys = Vec::new();
    let mut counts = Vec::with_capacity(states.len());
    let mut stats = SolveStats::default();
    let mut scratch: Vec<u64> = Vec::new();
    for &state in states {
        let succs = gen.minimal_successors(state);
        scratch.clear();
        scratch.extend(succs.iter().map(|s| canonicalize(s.state, n, canon)));
        stats.transitions += gen.stats.emitted;
        stats.witness_cuts += gen.stats.witness_cuts;
        stats.dominated_pruned += gen.stats.dominated;
        scratch.sort_unstable();
        scratch.dedup();
        counts.push(scratch.len() as u32);
        keys.extend_from_slice(&scratch);
    }
    WorkerOut {
        keys,
        counts,
        stats,
    }
}

/// Values one layer (`1 + max` over recorded successor keys), sharded.
fn value_layer(table: &StateTable, layer: &Layer, threads: usize) -> Vec<u32> {
    let len = layer.states.len();
    let threads = threads.clamp(1, len.max(1));
    let value_range = |lo: usize, hi: usize| -> Vec<u32> {
        (lo..hi)
            .map(|i| {
                let succ = &layer.succ_keys[layer.succ_off[i]..layer.succ_off[i + 1]];
                let mut best = 0u32;
                for &key in succ {
                    #[expect(clippy::expect_used, reason = "graded-DAG order guarantees it")]
                    let v = table.get(key).expect("graded DAG: successor valued first");
                    debug_assert_ne!(v, UNVALUED);
                    best = best.max(v);
                }
                // Empty successor list: every round tree broadcasts
                // immediately, so L = 1.
                best + 1
            })
            .collect()
    };
    if threads == 1 {
        return value_range(0, len);
    }
    let chunk = len.div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(len);
                let value_range = &value_range;
                scope.spawn(move || value_range(lo, hi))
            })
            .collect();
        let mut out = Vec::with_capacity(len);
        for h in handles {
            #[expect(
                clippy::expect_used,
                reason = "re-raise a worker panic, as in expansion."
            )]
            out.extend(h.join().expect("solver valuation worker panicked"));
        }
        out
    })
}

/// Re-derives an optimal schedule by greedy descent through the table.
fn extract_schedule(
    n: usize,
    t_star: u64,
    engine: &mut Engine,
) -> Result<Vec<RootedTree>, SolveError> {
    let mut gen = SuccessorGen::new(n);
    let mut schedule = Vec::with_capacity(t_star as usize);
    // Descend through RAW states (canonicalizing here would break the
    // replayability of the tree chain); only value lookups go through
    // canonical keys, which is sound because L is orbit-invariant.
    let mut state = identity_state(n);
    let mut remaining = t_star;
    while remaining > 0 {
        let succs = gen.minimal_successors(state).to_vec();
        engine.stats.transitions += gen.stats.emitted;
        engine.stats.witness_cuts += gen.stats.witness_cuts;
        engine.stats.dominated_pruned += gen.stats.dominated;
        if succs.is_empty() {
            // Every round tree broadcasts from here (L = 1): any tree is
            // optimal for the final round.
            assert_eq!(remaining, 1, "empty successor set before the last round");
            let tree = generators::star(n);
            state = apply_tree(state, n, &transition_edges(&tree));
            schedule.push(tree);
            break;
        }
        let mut advanced = false;
        for &s in &succs {
            // A table hit for Exact/None canonicalization; Fast may split
            // the orbit of a raw successor, in which case `value_of` runs
            // a sub-pass that values the missing cone.
            let value = engine.value_of(s.state)?;
            if u64::from(value) == remaining - 1 {
                schedule.push(gen.tree_for(state, s));
                state = s.state;
                remaining -= 1;
                advanced = true;
                break;
            }
        }
        assert!(
            advanced,
            "no successor matched the memoized depth; table inconsistent"
        );
    }
    debug_assert!(has_witness(state, n));
    Ok(schedule)
}

/// Replays a schedule through the public simulation engine and returns the
/// measured broadcast time — an end-to-end check that solver and model
/// agree.
///
/// # Panics
///
/// Panics if the schedule never broadcasts within `8n + 16` rounds.
pub fn verify_schedule(n: usize, schedule: &[RootedTree]) -> u64 {
    let mut source =
        SequenceSource::new(schedule.to_vec()).with_label(format!("solver-optimal(n={n})"));
    let report = run_workload(n, &mut source, &Broadcast, SimulationConfig::for_n(n));
    report.completion_time_or_panic()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::TreePool;
    use std::collections::HashMap as Map;
    use treecast_bitmatrix::BoolMatrix;
    use treecast_core::bounds;
    use treecast_trees::enumerate;

    /// Entirely independent brute-force reference: BoolMatrix states, no
    /// packing, no canonicalization, no pruning.
    fn brute_t_star(n: usize) -> u64 {
        let trees: Vec<BoolMatrix> = {
            let mut v = Vec::new();
            enumerate::for_each_rooted_tree(n, |t| v.push(t.to_matrix(true)));
            v
        };
        fn rec(s: &BoolMatrix, trees: &[BoolMatrix], memo: &mut Map<String, u64>) -> u64 {
            if s.has_full_row() {
                return 0;
            }
            let key = s.to_string();
            if let Some(&v) = memo.get(&key) {
                return v;
            }
            let mut best = 0;
            for t in trees {
                let next = s.compose(t);
                best = best.max(rec(&next, trees, memo));
            }
            memo.insert(key, best + 1);
            best + 1
        }
        rec(&BoolMatrix::identity(n), &trees, &mut Map::new())
    }

    /// The old recursive solver, kept verbatim as a reference: memoized
    /// descent over the streamed tree pool with dominance pruning.
    fn recursive_t_star(n: usize, canon: CanonMode) -> u64 {
        let pool = TreePool::new(n);
        fn longest(
            state: u64,
            n: usize,
            pool: &TreePool,
            canon: CanonMode,
            memo: &mut Map<u64, u32>,
        ) -> u32 {
            if has_witness(state, n) {
                return 0;
            }
            let key = canonicalize(state, n, canon);
            if let Some(&v) = memo.get(&key) {
                return v;
            }
            let mut best = 0u32;
            for (succ, _) in pool.minimal_successors_streaming(key) {
                best = best.max(longest(succ, n, pool, canon, memo));
            }
            memo.insert(key, best + 1);
            best + 1
        }
        u64::from(longest(identity_state(n), n, &pool, canon, &mut Map::new()))
    }

    #[test]
    fn tiny_cases_match_brute_force() {
        for n in 1..=4 {
            let exact = solve(n).unwrap();
            assert_eq!(exact.t_star, brute_t_star(n), "n = {n}");
        }
    }

    #[test]
    #[ignore = "release-tier: brute force at n = 5 is minutes in debug"]
    fn brute_force_cross_check_n5() {
        assert_eq!(solve(5).unwrap().t_star, brute_t_star(5));
    }

    #[test]
    fn layered_matches_recursive_reference() {
        for n in 2..=5 {
            assert_eq!(
                solve(n).unwrap().t_star,
                recursive_t_star(n, CanonMode::Exact),
                "n = {n}"
            );
        }
    }

    #[test]
    #[ignore = "release-tier: the recursive reference takes ~30 s at n = 6"]
    fn layered_matches_recursive_reference_n6() {
        assert_eq!(
            solve(6).unwrap().t_star,
            recursive_t_star(6, CanonMode::Exact)
        );
    }

    #[test]
    #[ignore = "opt-in (TREECAST_N7=1): n = 7 is ~2 h of release-mode compute"]
    fn solve_n7_within_sandwich() {
        if std::env::var("TREECAST_N7").is_err() {
            eprintln!("solve_n7_within_sandwich: set TREECAST_N7=1 to run");
            return;
        }
        let r = solve_with(
            7,
            SolveOptions {
                skip_schedule: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(bounds::sandwich_holds(7, r.t_star), "t* = {}", r.t_star);
        assert_eq!(Some(r.t_star), bounds::known_t_star(7));
    }

    #[test]
    fn n2_and_known_structure() {
        let r = solve(2).unwrap();
        assert_eq!(r.t_star, 1);
        assert_eq!(r.schedule.len(), 1);
    }

    #[test]
    fn all_canon_modes_agree() {
        for n in 2..=5 {
            let exact = solve_with(
                n,
                SolveOptions {
                    canon: CanonMode::Exact,
                    skip_schedule: true,
                    ..Default::default()
                },
            )
            .unwrap()
            .t_star;
            let fast = solve_with(
                n,
                SolveOptions {
                    canon: CanonMode::Fast,
                    skip_schedule: true,
                    ..Default::default()
                },
            )
            .unwrap()
            .t_star;
            let none = solve_with(
                n,
                SolveOptions {
                    canon: CanonMode::None,
                    skip_schedule: true,
                    ..Default::default()
                },
            )
            .unwrap()
            .t_star;
            assert_eq!(exact, fast, "n = {n}");
            assert_eq!(exact, none, "n = {n}");
        }
    }

    #[test]
    fn t_star_respects_theorem_sandwich() {
        for n in 1..=5u64 {
            let r = solve(n as usize).unwrap();
            assert!(
                r.t_star <= bounds::upper_bound(n),
                "n = {n}: t* = {} above upper bound {}",
                r.t_star,
                bounds::upper_bound(n)
            );
            assert!(
                r.t_star >= bounds::lower_bound(n),
                "n = {n}: t* = {} below lower bound {}",
                r.t_star,
                bounds::lower_bound(n)
            );
        }
    }

    #[test]
    fn schedule_replays_to_t_star() {
        for n in 2..=5 {
            let r = solve(n).unwrap();
            assert_eq!(r.schedule.len() as u64, r.t_star);
            let measured = verify_schedule(n, &r.schedule);
            assert_eq!(measured, r.t_star, "n = {n}");
        }
    }

    #[test]
    fn unsupported_sizes_error() {
        assert!(matches!(solve(0), Err(SolveError::UnsupportedN { n: 0 })));
        assert!(matches!(solve(9), Err(SolveError::UnsupportedN { n: 9 })));
    }

    #[test]
    fn state_limit_triggers() {
        let r = solve_with(
            5,
            SolveOptions {
                max_states: 3,
                ..Default::default()
            },
        );
        assert!(matches!(r, Err(SolveError::StateLimit { limit: 3 })));
    }

    #[test]
    fn layer_budget_triggers() {
        let r = solve_with(
            5,
            SolveOptions {
                layer_budget: 2,
                ..Default::default()
            },
        );
        match r {
            Err(SolveError::LayerLimit { size, budget, .. }) => {
                assert!(size > budget);
                assert_eq!(budget, 2);
            }
            other => panic!("expected LayerLimit, got {other:?}"),
        }
    }

    #[test]
    fn stats_are_populated() {
        let r = solve(4).unwrap();
        assert!(r.stats.states_explored > 0);
        assert!(r.stats.transitions > 0);
        assert!(r.stats.witness_cuts > 0);
    }

    #[test]
    fn states_explored_includes_extraction_work() {
        // Regression for the pre-layered bug: `states_explored` was
        // snapshotted before `extract_schedule` ran, silently dropping
        // states valued during extraction. The count must now be taken
        // after extraction, so a run with a schedule can never report
        // fewer states than the same run without one.
        for canon in [CanonMode::Exact, CanonMode::Fast, CanonMode::None] {
            let skip = solve_with(
                5,
                SolveOptions {
                    canon,
                    skip_schedule: true,
                    ..Default::default()
                },
            )
            .unwrap();
            let sched = solve_with(
                5,
                SolveOptions {
                    canon,
                    skip_schedule: false,
                    ..Default::default()
                },
            )
            .unwrap();
            assert!(sched.stats.states_explored >= skip.stats.states_explored);
            assert!(skip.stats.states_explored > 0);
            // Orbit-exact and raw canonicalization make extraction pure
            // lookups, so the counts must match exactly there.
            if !matches!(canon, CanonMode::Fast) {
                assert_eq!(
                    sched.stats.states_explored, skip.stats.states_explored,
                    "{canon:?}"
                );
            }
        }
    }

    #[test]
    fn thread_counts_agree_bit_for_bit() {
        for n in [3usize, 4] {
            let base = solve_with(
                n,
                SolveOptions {
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            for threads in [2usize, 3, 8] {
                let sharded = solve_with(
                    n,
                    SolveOptions {
                        threads,
                        ..Default::default()
                    },
                )
                .unwrap();
                assert_eq!(base.t_star, sharded.t_star, "n = {n}, threads = {threads}");
                assert_eq!(base.stats, sharded.stats, "n = {n}, threads = {threads}");
                assert_eq!(
                    base.schedule, sharded.schedule,
                    "n = {n}, threads = {threads}"
                );
            }
        }
    }

    #[test]
    fn solver_runs_on_a_small_stack() {
        // The old recursive descent was ~2.5n frames deep with big frames;
        // the layered engine must complete — schedule extraction included —
        // on a deliberately tiny stack.
        let handle = std::thread::Builder::new()
            .stack_size(128 * 1024)
            .spawn(|| {
                let r = solve(5).unwrap();
                assert_eq!(r.t_star, bounds::lower_bound(5));
                assert_eq!(verify_schedule(5, &r.schedule), r.t_star);
            })
            .expect("spawn small-stack thread");
        handle.join().expect("small-stack solve must not overflow");
    }

    #[test]
    #[ignore = "release-tier: n = 6 takes ~a minute in debug"]
    fn deepest_known_chain_on_a_small_stack() {
        // Path-heavy optimal schedules at n = 6 (t* = 7) drove the old
        // recursion to its deepest point; replay that worst case on a
        // small stack, with extraction.
        let handle = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let r = solve(6).unwrap();
                assert_eq!(r.t_star, bounds::lower_bound(6));
                assert_eq!(verify_schedule(6, &r.schedule), r.t_star);
            })
            .expect("spawn small-stack thread");
        handle.join().expect("small-stack solve must not overflow");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(10))]

            /// Layer-parallel and single-thread solves agree on value,
            /// statistics and schedule for every mode.
            #[test]
            fn sharded_solves_match_single_thread(
                n in 2usize..=4,
                threads in 2usize..=6,
                canon_pick in 0usize..3,
            ) {
                let canon = [CanonMode::Exact, CanonMode::Fast, CanonMode::None][canon_pick];
                let single = solve_with(
                    n,
                    SolveOptions { canon, threads: 1, ..Default::default() },
                )
                .unwrap();
                let sharded = solve_with(
                    n,
                    SolveOptions { canon, threads, ..Default::default() },
                )
                .unwrap();
                prop_assert_eq!(single.t_star, sharded.t_star);
                prop_assert_eq!(single.stats, sharded.stats);
                prop_assert_eq!(single.schedule, sharded.schedule);
            }
        }
    }
}
