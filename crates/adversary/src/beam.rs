//! Offline beam search over whole tree schedules, generic over workloads.
//!
//! Greedy adversaries commit to one tree per round; beam search keeps the
//! `width` most promising *product-graph states* alive and extends them
//! all, which recovers delaying lines a one-step objective misses. The
//! result is a replayable schedule (a [`SequenceSource`]), making every
//! beam result a *certified achievable lower bound* on the workload's
//! worst-case completion time.
//!
//! The planner searches one state, the [`BroadcastState`], and is
//! generic along two axes:
//!
//! * **objective** — any [`Objective`], reading each state through
//!   [`Tokens`] on the workload's sources; candidate rounds are ranked by
//!   `(lookahead score, immediate score)`, so `width = 1` at `lookahead =
//!   0` replays greedy descent step for step (for objectives whose score
//!   is dominated by workload completion);
//! * **workload** — any [`Workload`]: its [`SourceSet`] names the token
//!   columns the objective and the progress summary read (every column
//!   for the broadcast / `k`-broadcast / gossip family, the `k` source
//!   columns for `k`-source workloads), and its termination predicate
//!   decides which successor states are dead ends.
//!
//! [`BeamOptions::lookahead`] adds a depth-`d` scorer: each candidate's
//! successor is expanded `d` more rounds through the candidate pool and
//! ranked by the best [`Objective::state_rank`] any continuation reaches —
//! `d = 0` reproduces the pre-refactor one-step scorer exactly.

use std::collections::hash_map::DefaultHasher;
use std::collections::{hash_map, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use treecast_core::{Broadcast, BroadcastState, SequenceSource, SourceSet, TreeSource, Workload};
use treecast_trees::RootedTree;

use crate::candidates::CandidateGen;
use crate::objectives::{Objective, Tokens};
use crate::survival::SurvivalObjective;

/// Beam search configuration.
#[derive(Debug, Clone, Copy)]
pub struct BeamOptions {
    /// States kept per generation.
    pub width: usize,
    /// Safety cap on schedule length (defaults to `4n + 8` in
    /// [`BeamOptions::for_n`]).
    pub max_rounds: u64,
    /// Lookahead depth of the candidate scorer: each successor is expanded
    /// this many further rounds and ranked by the best
    /// [`Objective::state_rank`] it can still reach. `0` (the default)
    /// scores successors directly — the pre-refactor behavior. Cost is
    /// `|pool|^lookahead` extra state applications per candidate; keep it
    /// ≤ 2 on structured pools.
    pub lookahead: u32,
}

impl BeamOptions {
    /// Default options for an `n`-process plan: width 48, cap `4n + 8`,
    /// no lookahead.
    pub fn for_n(n: usize) -> Self {
        BeamOptions {
            width: 48,
            max_rounds: 4 * n as u64 + 8,
            lookahead: 0,
        }
    }

    /// Replaces the beam width.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn with_width(mut self, width: usize) -> Self {
        assert!(width > 0, "beam width must be positive");
        self.width = width;
        self
    }

    /// Replaces the lookahead depth.
    pub fn with_lookahead(mut self, lookahead: u32) -> Self {
        self.lookahead = lookahead;
        self
    }
}

/// Candidate rank: `(lookahead score, immediate objective score)`.
/// Insertion order breaks remaining ties (stable sort), matching greedy's
/// first-minimum rule.
type ScoreKey = (u64, u64);

/// A persistent schedule suffix: beam entries share their common prefix
/// instead of cloning whole `Vec<RootedTree>` schedules every round (the
/// pre-refactor planner's hidden quadratic cost over long horizons —
/// dead branches drop their `Rc` chains automatically).
struct Link {
    tree: RootedTree,
    prev: Option<Rc<Link>>,
}

fn extend(prev: &Option<Rc<Link>>, tree: RootedTree) -> Option<Rc<Link>> {
    Some(Rc::new(Link {
        tree,
        prev: prev.clone(),
    }))
}

fn collect_schedule(link: &Option<Rc<Link>>) -> Vec<RootedTree> {
    let mut out = Vec::new();
    let mut cursor = link.as_deref();
    while let Some(l) = cursor {
        out.push(l.tree.clone());
        cursor = l.prev.as_deref();
    }
    out.reverse();
    out
}

struct Entry {
    state: BroadcastState,
    schedule: Option<Rc<Link>>,
    key: ScoreKey,
    fingerprint: u64,
}

/// A dedup fingerprint: equal states fingerprint equally.
fn fingerprint(state: &BroadcastState) -> u64 {
    let mut h = DefaultHasher::new();
    for y in 0..state.n() {
        state.heard_set(y).words().hash(&mut h);
    }
    h.finish()
}

/// Best [`Objective::state_rank`] reachable from `tokens`' state in
/// `depth` more rounds; workload-complete states are dead lines and rank
/// worst.
pub(crate) fn lookahead_rank<P, O, W>(
    tokens: Tokens<'_>,
    pool: &mut P,
    objective: &O,
    workload: &W,
    depth: u32,
) -> u64
where
    P: CandidateGen + ?Sized,
    O: Objective + ?Sized,
    W: Workload + ?Sized,
{
    if workload.is_complete(&tokens.progress()) {
        return u64::MAX;
    }
    if depth == 0 {
        return objective.state_rank(tokens);
    }
    let state = tokens.state();
    let mut best = u64::MAX;
    // One probe per recursion level, reused across the candidates of that
    // level (mirrors the main loop's clone_from buffer reuse).
    let mut next = state.clone();
    for tree in pool.candidates(state) {
        next.clone_from(state);
        next.apply(&tree);
        let next = Tokens::new(&next, tokens.sources());
        best = best.min(lookahead_rank(next, pool, objective, workload, depth - 1));
    }
    best
}

/// Plans an `n`-process schedule that keeps `workload` incomplete as long
/// as the beam can manage, then ends with one forced round.
///
/// Replayed from a fresh state, the schedule completes the workload at
/// exactly `schedule.len()` rounds (the last round is the first complete
/// one), unless the `max_rounds` cap cut planning short — which is the
/// *expected* outcome for the provably divergent variants (`k ≥ 2`
/// broadcast and gossip under unrestricted trees).
///
/// With `options.width == 1` and `options.lookahead == 0` the planner
/// replays greedy descent under `objective` step for step, provided the
/// objective ranks every workload-completing round above every surviving
/// one (true for the completion-dominated measures [`crate::MinMaxReach`]
/// and [`crate::MinDisseminated`]).
///
/// # Panics
///
/// Panics if `options.width == 0`.
///
/// # Examples
///
/// ```
/// use treecast_adversary::{beam_search_workload_plan, BeamOptions, MinDisseminated,
///     StructuredPool};
/// use treecast_core::{run_workload, KBroadcast, SequenceSource, SimulationConfig,
///     WorkloadOutcome};
///
/// // A 2-broadcast beam stalls the run for the whole planning horizon.
/// let n = 8;
/// let plan = beam_search_workload_plan(
///     n,
///     &mut StructuredPool::new(),
///     &MinDisseminated::default(),
///     &KBroadcast::new(2),
///     BeamOptions::for_n(n).with_width(4),
/// );
/// let mut replay = SequenceSource::new(plan);
/// let report = run_workload(n, &mut replay, &KBroadcast::new(2), SimulationConfig::for_n(n));
/// assert_eq!(report.outcome, WorkloadOutcome::RoundLimit);
/// ```
pub fn beam_search_workload_plan<P, O, W>(
    n: usize,
    pool: &mut P,
    objective: &O,
    workload: &W,
    options: BeamOptions,
) -> Vec<RootedTree>
where
    P: CandidateGen + ?Sized,
    O: Objective + ?Sized,
    W: Workload + ?Sized,
{
    assert!(options.width > 0, "beam width must be positive");
    let source_set = workload.sources(n);
    let sources = match &source_set {
        SourceSet::All => None,
        SourceSet::Nodes(nodes) => Some(nodes.as_slice()),
    };
    let start = BroadcastState::new(n);
    if workload.is_complete(&Tokens::new(&start, sources).progress()) {
        // Already complete (n == 1, or a vacuous threshold): an empty
        // schedule is not allowed by SequenceSource, so emit one tree.
        return pool.candidates(&start).into_iter().take(1).collect();
    }
    let mut beam = vec![Entry {
        fingerprint: fingerprint(&start),
        state: start,
        schedule: None,
        key: (0, 0),
    }];
    // The best workload-completing move seen in the current generation;
    // only used when no successor survives. Ties keep the first seen
    // (greedy's rule). Under the survival scorer every completing state
    // ranks exactly u64::MAX, so all completing moves tie and the legacy
    // first-seen behavior is preserved verbatim; objectives with finer
    // completion scores deliberately pick the least-bad finish instead.
    let mut best_full: Option<(ScoreKey, Option<Rc<Link>>)> = None;
    // One probe state reused for every candidate expansion: `clone_from`
    // recycles flat buffers where the state supports it, so only
    // candidates that survive the witness check pay a full clone.
    let mut probe = BroadcastState::new(n);

    for _round in 0..options.max_rounds {
        let mut next: Vec<Entry> = Vec::new();
        // Best key pushed so far per state fingerprint: a candidate whose
        // state is already represented at an equal-or-better key would be
        // dropped by the post-sort dedup anyway (equal keys keep the first
        // seen), so it can skip the state clone entirely. Structured pools
        // produce many duplicate successors on symmetric states, making
        // this the planner's main allocation saver.
        let mut best_pushed: HashMap<u64, ScoreKey> = HashMap::new();
        for entry in &beam {
            let before = Tokens::new(&entry.state, sources);
            for tree in pool.candidates(&entry.state) {
                probe.clone_from(&entry.state);
                probe.apply(&tree);
                let after = Tokens::new(&probe, sources);
                let immediate = objective.score_state(before, &tree, after);
                if workload.is_complete(&after.progress()) {
                    let key = (u64::MAX, immediate);
                    if best_full.as_ref().map(|(k, _)| key < *k).unwrap_or(true) {
                        best_full = Some((key, extend(&entry.schedule, tree)));
                    }
                    continue;
                }
                let future = if options.lookahead == 0 {
                    0
                } else {
                    lookahead_rank(after, pool, objective, workload, options.lookahead)
                };
                let key = (future, immediate);
                let fingerprint = fingerprint(&probe);
                match best_pushed.entry(fingerprint) {
                    hash_map::Entry::Occupied(mut seen) if *seen.get() > key => {
                        seen.insert(key);
                    }
                    hash_map::Entry::Occupied(_) => continue,
                    hash_map::Entry::Vacant(slot) => {
                        slot.insert(key);
                    }
                }
                next.push(Entry {
                    state: probe.clone(),
                    schedule: extend(&entry.schedule, tree),
                    key,
                    fingerprint,
                });
            }
        }
        if next.is_empty() {
            break;
        }
        // Stable sort, then dedup keeping the best-ranked representative
        // of each state (which, among equal keys, is the first seen).
        next.sort_by_key(|e| e.key);
        let mut seen: HashSet<u64> = HashSet::new();
        next.retain(|e| seen.insert(e.fingerprint));
        next.truncate(options.width);
        // Any survivor dominates earlier forced finishes.
        best_full = None;
        beam = next;
    }

    // Finish the best line with one more (forced or arbitrary) round.
    if let Some((_, schedule)) = best_full {
        return collect_schedule(&schedule);
    }
    #[expect(
        clippy::expect_used,
        reason = "the beam is seeded with the root state and never drained below one entry"
    )]
    let best = beam.into_iter().next().expect("beam is never empty");
    let mut schedule = collect_schedule(&best.schedule);
    // Cap hit with survivors: append one closing candidate so the schedule
    // is replayable end-to-end (may not complete instantly; the engine's
    // repeat-last semantics finishes or caps the run).
    if let Some(t) = pool.candidates(&best.state).into_iter().next() {
        schedule.push(t);
    }
    schedule
}

/// Plans a single-source broadcast schedule for `n` processes — the
/// classic entry point, now a thin wrapper over
/// [`beam_search_workload_plan`] with the [`Broadcast`] workload and the
/// survival scorer.
///
/// The returned schedule replayed from the identity state broadcasts at
/// exactly `schedule.len()` rounds (the last round is the first with a
/// witness), unless the `max_rounds` cap cut planning short.
///
/// # Examples
///
/// ```
/// use treecast_adversary::{beam_search_plan, BeamOptions, StructuredPool};
/// use treecast_core::{run_workload, Broadcast, SequenceSource, SimulationConfig};
///
/// let n = 12;
/// let plan = beam_search_plan(n, &mut StructuredPool::new(), BeamOptions::for_n(n));
/// let mut replay = SequenceSource::new(plan.clone());
/// let report = run_workload(n, &mut replay, &Broadcast, SimulationConfig::for_n(n));
/// assert_eq!(report.broadcast_time, Some(plan.len() as u64));
/// ```
pub fn beam_search_plan<P: CandidateGen + ?Sized>(
    n: usize,
    pool: &mut P,
    options: BeamOptions,
) -> Vec<RootedTree> {
    beam_search_workload_plan(n, pool, &SurvivalObjective, &Broadcast, options)
}

/// [`TreeSource`] wrapper that lazily beam-plans on first use and then
/// replays the plan.
///
/// The default type parameters recover the classic broadcast beam
/// ([`BeamSearchAdversary::new`]); [`BeamSearchAdversary::for_workload`]
/// plans against any [`Workload`] under any [`Objective`], which reads
/// the workload's source columns ([`beam_search_workload_plan`]).
pub struct BeamSearchAdversary<P, O = SurvivalObjective, W = Broadcast> {
    pool: P,
    objective: O,
    workload: W,
    width: usize,
    lookahead: u32,
    replay: Option<SequenceSource>,
}

impl<P: CandidateGen> BeamSearchAdversary<P> {
    /// Broadcast beam adversary over `pool` with the given beam width and
    /// the survival scorer — the classic configuration.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(pool: P, width: usize) -> Self {
        Self::for_workload(pool, SurvivalObjective, Broadcast, width)
    }
}

impl<P: CandidateGen, O, W: Workload> BeamSearchAdversary<P, O, W> {
    /// Beam adversary planning against `workload` under `objective`.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn for_workload(pool: P, objective: O, workload: W, width: usize) -> Self {
        assert!(width > 0, "beam width must be positive");
        BeamSearchAdversary {
            pool,
            objective,
            workload,
            width,
            lookahead: 0,
            replay: None,
        }
    }

    /// Sets the lookahead depth of the planner.
    pub fn with_lookahead(mut self, lookahead: u32) -> Self {
        self.lookahead = lookahead;
        self
    }
}

impl<P, O, W> TreeSource for BeamSearchAdversary<P, O, W>
where
    P: CandidateGen,
    O: Objective,
    W: Workload,
{
    #[expect(
        clippy::expect_used,
        reason = "the replay plan is initialized by the branch above on first call"
    )]
    fn next_tree(&mut self, state: &BroadcastState) -> RootedTree {
        if self.replay.is_none() {
            let n = state.n();
            let options = BeamOptions::for_n(n)
                .with_width(self.width)
                .with_lookahead(self.lookahead);
            let plan = beam_search_workload_plan(
                n,
                &mut self.pool,
                &self.objective,
                &self.workload,
                options,
            );
            self.replay = Some(SequenceSource::new(plan));
        }
        self.replay
            .as_mut()
            .expect("initialized above")
            .next_tree(state)
    }

    fn name(&self) -> String {
        format!(
            "beam(w={}, d={}, {}, {})",
            self.width,
            self.lookahead,
            self.workload.name(),
            self.pool.name()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::StructuredPool;
    use crate::objectives::{MinDisseminated, MinMaxReach};
    use crate::strategies::GreedyAdversary;
    use treecast_core::{
        bounds, run_workload, Broadcast, Gossip, KBroadcast, KSourceBroadcast, SimulationConfig,
        WorkloadOutcome,
    };

    fn beam_time(n: usize, width: usize) -> u64 {
        let plan = beam_search_plan(
            n,
            &mut StructuredPool::new(),
            BeamOptions::for_n(n).with_width(width),
        );
        let mut replay = SequenceSource::new(plan);
        run_workload(n, &mut replay, &Broadcast, SimulationConfig::for_n(n))
            .completion_time_or_panic()
    }

    #[test]
    fn beam_is_at_least_as_good_as_greedy() {
        for n in [6usize, 10, 16] {
            let mut greedy = GreedyAdversary::new(StructuredPool::new(), MinMaxReach);
            let g = run_workload(n, &mut greedy, &Broadcast, SimulationConfig::for_n(n))
                .completion_time_or_panic();
            let b = beam_time(n, 32);
            assert!(
                b >= g,
                "beam (width 32) {b} must not lose to greedy {g} at n = {n}"
            );
        }
    }

    #[test]
    fn beam_respects_upper_bound() {
        for n in [4usize, 8, 14] {
            let t = beam_time(n, 16);
            assert!(t <= bounds::upper_bound(n as u64), "n = {n}, t = {t}");
        }
    }

    #[test]
    fn beam_over_arborescence_pool_reaches_zss_bound_small_n() {
        // Certified lower-bound side of Theorem 3.1: the beam-planned
        // schedule replays to at least ⌈(3n−1)/2⌉ − 2 for small n.
        use crate::survival::ArborescencePool;
        for n in [6usize, 8] {
            let plan = beam_search_plan(
                n,
                &mut ArborescencePool::new(4),
                BeamOptions::for_n(n).with_width(32),
            );
            let mut replay = SequenceSource::new(plan);
            let t = run_workload(n, &mut replay, &Broadcast, SimulationConfig::for_n(n))
                .completion_time_or_panic();
            assert!(
                t >= bounds::lower_bound(n as u64),
                "n = {n}: beam reached {t}, ZSS bound {}",
                bounds::lower_bound(n as u64)
            );
            assert!(t <= bounds::upper_bound(n as u64));
        }
    }

    #[test]
    fn adversary_wrapper_replays_plan() {
        let n = 8;
        let mut adv = BeamSearchAdversary::new(StructuredPool::new(), 16);
        let report = run_workload(n, &mut adv, &Broadcast, SimulationConfig::for_n(n));
        let t = report.completion_time_or_panic();
        // Structured (path-shaped) pools cannot reach the ZSS bound; they
        // must still match the static path and respect the theorem.
        assert!(t >= (n as u64) - 1);
        assert!(t <= bounds::upper_bound(n as u64));
        assert!(adv.name().contains("beam(w=16"));
        assert!(adv.name().contains("broadcast"));
    }

    #[test]
    fn single_process_plan() {
        let plan = beam_search_plan(1, &mut StructuredPool::new(), BeamOptions::for_n(1));
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn wider_beam_never_much_worse() {
        let n = 9;
        let narrow = beam_time(n, 4);
        let wide = beam_time(n, 64);
        assert!(wide + 1 >= narrow, "wide {wide} vs narrow {narrow}");
    }

    #[test]
    fn variant_beam_stalls_two_broadcast() {
        // The workload-aware beam must find the k ≥ 2 divergence: a
        // 2-broadcast run under its plan never completes.
        let n = 8;
        let mut adv = BeamSearchAdversary::for_workload(
            StructuredPool::new(),
            MinDisseminated::default(),
            KBroadcast::new(2),
            4,
        );
        let report = run_workload(n, &mut adv, &KBroadcast::new(2), SimulationConfig::for_n(n));
        assert_eq!(report.outcome, WorkloadOutcome::RoundLimit);
        assert!(report.disseminated <= 1, "{report:?}");
        assert!(adv.name().contains("k-broadcast(k=2)"));
    }

    #[test]
    fn gossip_beam_is_no_faster_than_broadcast_beam() {
        // Gossip needs every token out, so a gossip-delaying plan survives
        // at least as long as the broadcast bound it contains.
        let n = 8;
        let plan = beam_search_workload_plan(
            n,
            &mut StructuredPool::new(),
            &MinDisseminated::default(),
            &Gossip,
            BeamOptions::for_n(n).with_width(8),
        );
        let mut replay = SequenceSource::new(plan);
        let report = run_workload(n, &mut replay, &Gossip, SimulationConfig::for_n(n));
        match report.completion_time {
            Some(t) => assert!(t >= report.broadcast_time.unwrap_or(0)),
            None => assert_eq!(report.outcome, WorkloadOutcome::RoundLimit),
        }
    }

    #[test]
    fn tracked_beam_plans_k_source_workloads() {
        // A k-source plan scores the state on its source columns; the plan
        // must replay through run_workload and delay the tracked tokens at
        // least as long as the static path delays them.
        let n = 8;
        let workload = KSourceBroadcast::evenly_spread(n, 2);
        let mut adv = BeamSearchAdversary::for_workload(
            StructuredPool::new(),
            MinDisseminated::default(),
            workload.clone(),
            4,
        );
        let report = run_workload(n, &mut adv, &workload, SimulationConfig::for_n(n));
        assert_eq!(report.tokens, 2);
        match report.completion_time {
            Some(t) => assert!(t >= (n as u64) - 1, "beam must not beat the path: {t}"),
            None => assert_eq!(report.outcome, WorkloadOutcome::RoundLimit),
        }
    }

    #[test]
    #[should_panic(expected = "beam width must be positive")]
    fn zero_width_is_rejected_at_the_planner() {
        // `width` is a public field, so `with_width`'s check can be
        // bypassed; the planner must still name the bad option.
        let n = 8;
        let mut options = BeamOptions::for_n(n);
        options.width = 0;
        beam_search_workload_plan(
            n,
            &mut StructuredPool::new(),
            &MinMaxReach,
            &Broadcast,
            options,
        );
    }

    #[test]
    fn fingerprints_separate_states() {
        let mut a = BroadcastState::new(5);
        let b = a.clone();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        a.apply(&treecast_trees::generators::path(5));
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn lookahead_zero_matches_direct_scoring_and_deeper_stays_sane() {
        let n = 8;
        let base = beam_search_plan(
            n,
            &mut StructuredPool::new(),
            BeamOptions::for_n(n).with_width(4),
        );
        let explicit_zero = beam_search_plan(
            n,
            &mut StructuredPool::new(),
            BeamOptions::for_n(n).with_width(4).with_lookahead(0),
        );
        assert_eq!(base, explicit_zero);
        let deeper = beam_search_plan(
            n,
            &mut StructuredPool::new(),
            BeamOptions::for_n(n).with_width(4).with_lookahead(1),
        );
        let mut replay = SequenceSource::new(deeper);
        let t = run_workload(n, &mut replay, &Broadcast, SimulationConfig::for_n(n))
            .completion_time_or_panic();
        assert!(t >= (n as u64) - 1);
        assert!(t <= bounds::upper_bound(n as u64));
    }
}
