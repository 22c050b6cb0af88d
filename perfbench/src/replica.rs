//! The three replica workloads: Monte Carlo cells run through the
//! library's replica pool on the dense engine, the frontier engine and the
//! gossip emulation.
//!
//! The untraced run times whole pool batches (`run_replicas_from`) and,
//! through a [`ReplicaSource`] wrapper, each replica. The traced run
//! repeats the same batches through [`Instrumented`], which runs each
//! replica on the benchmark's own copy of the engine's round loop (dense
//! and frontier) or on the library's traced hook (emulation), with a span
//! around every call into a layer. The same instrumented runner, with its
//! recorder disabled, is the reference every untraced replica is checked
//! against.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use treecast_bitmatrix::BoolMatrix;
use treecast_core::workload::full_state_progress;
use treecast_core::{
    replica_seed, splitmix64, BroadcastState, FaultModel, FaultSpec, FrontierSource, FrontierState,
    KSourceBroadcast, ReplicaOutcome, ReplicaSource, RoundFaults, SimulationConfig, SourceSet,
    StaticSource, TrackedTokens, TreeSource, TreeSpec, Workload, WorkloadOutcome, WorkloadProgress,
    WorkloadReport, TREE_STREAM_TWEAK,
};
use treecast_emulation::{run_emulation_traced, EmulationSpec, GossipKnobs};
use treecast_montecarlo::{run_replicas_from, RunSpec};
use treecast_trees::{generators, RootedTree};

use crate::metrics::{self, median_timed, ratio, Outcome, Windows};
use crate::trace::{Recorder, Span, Trace};

/// Samples of the replica-cell set-up whose median is `setup_s`. A cell
/// builds in tens of nanoseconds, so each sample times
/// [`SETUP_BUILDS`] builds and reports their mean.
const SETUP_SAMPLES: usize = 101;
const SETUP_BUILDS: usize = 1000;

/// Which replica runner a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `RunSpec`: dense up to `DENSE_MAX_N`, frontier above.
    Synchronous,
    /// `EmulationSpec` with these protocol knobs.
    Emulated(GossipKnobs),
}

/// A replica workload: one Monte Carlo cell shape, re-seeded per batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaShape {
    /// The replica runner.
    pub engine: Engine,
    /// Network size.
    pub n: usize,
    /// Tracked sources.
    pub k: usize,
    /// Tree stream.
    pub trees: TreeSpec,
    /// Fault mix.
    pub faults: FaultSpec,
    /// Replicas per pool batch (one Monte Carlo estimate).
    pub replicas: usize,
}

impl ReplicaShape {
    /// The cell of this shape with base seed `seed`.
    #[must_use]
    pub fn cell(&self, seed: u64) -> Cell {
        match self.engine {
            Engine::Synchronous => Cell::Synchronous(
                RunSpec::new(self.n, self.k, self.trees, self.faults)
                    .with_replicas(self.replicas)
                    .with_seed(seed),
            ),
            Engine::Emulated(knobs) => Cell::Emulated(
                EmulationSpec::new(self.n, self.k, self.trees, self.faults, knobs)
                    .with_replicas(self.replicas)
                    .with_seed(seed),
            ),
        }
    }
}

/// A replica cell of either runner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cell {
    /// A synchronous-engine cell.
    Synchronous(RunSpec),
    /// An emulation cell.
    Emulated(EmulationSpec),
}

impl Cell {
    /// The library's replica source for this cell.
    #[must_use]
    pub fn source(&self) -> &dyn ReplicaSource {
        match self {
            Cell::Synchronous(spec) => spec,
            Cell::Emulated(spec) => spec,
        }
    }

    /// Replica `index` through the instrumented runner: the same inputs
    /// the library derives for that replica, run with a span around each
    /// call into a layer.
    pub fn run_instrumented(
        &self,
        index: usize,
        rec: &Recorder,
        counters: &mut Counters,
    ) -> WorkloadReport {
        match self {
            Cell::Synchronous(spec) => run_synchronous(spec, index, rec, counters),
            Cell::Emulated(spec) => run_emulated(spec, index, rec, counters),
        }
    }
}

/// Exact counts gathered by the instrumented runner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Rounds executed, all engines.
    pub rounds: u64,
    /// Dense-engine rounds.
    pub dense_rounds: u64,
    /// Dense rounds that carried a fault and built the masked matrix.
    pub masked_rounds: u64,
    /// Frontier-engine rounds.
    pub frontier_rounds: u64,
    /// Emulation rounds.
    pub emulation_rounds: u64,
    /// Loss, offline and re-root events drawn by the fault model.
    pub fault_events: u64,
    /// Random trees drawn, per round or pre-drawn.
    pub trees_drawn: u64,
    /// Largest emulation queue depth seen after a round.
    pub pending_max: u64,
    /// Emulation queue depth summed over rounds.
    pub pending_sum: u64,
}

impl Counters {
    fn merge(&mut self, other: &Counters) {
        self.rounds += other.rounds;
        self.dense_rounds += other.dense_rounds;
        self.masked_rounds += other.masked_rounds;
        self.frontier_rounds += other.frontier_rounds;
        self.emulation_rounds += other.emulation_rounds;
        self.fault_events += other.fault_events;
        self.trees_drawn += other.trees_drawn;
        self.pending_max = self.pending_max.max(other.pending_max);
        self.pending_sum += other.pending_sum;
    }
}

/// A [`FaultModel`] that times each query and counts the events drawn.
pub struct TimedFaults<'r, F> {
    inner: F,
    rec: &'r Recorder,
    /// Loss, offline and re-root events returned so far.
    pub events: u64,
}

impl<'r, F: FaultModel> TimedFaults<'r, F> {
    /// Wraps `inner`.
    pub fn new(inner: F, rec: &'r Recorder) -> Self {
        TimedFaults {
            inner,
            rec,
            events: 0,
        }
    }
}

impl<F: FaultModel> FaultModel for TimedFaults<'_, F> {
    fn faults(&mut self, round: u64, n: usize) -> RoundFaults {
        let rf = self
            .rec
            .time("core.scenario.faults", || self.inner.faults(round, n));
        self.events += (rf.losses.len() + rf.offline.len() + usize::from(rf.root.is_some())) as u64;
        rf
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// A [`TreeSource`] that times each tree it hands out.
pub struct TimedTrees<'r, S> {
    inner: S,
    rec: &'r Recorder,
}

impl<'r, S: TreeSource> TimedTrees<'r, S> {
    /// Wraps `inner`.
    pub fn new(inner: S, rec: &'r Recorder) -> Self {
        TimedTrees { inner, rec }
    }
}

impl<S: TreeSource> TreeSource for TimedTrees<'_, S> {
    fn next_tree(&mut self, state: &BroadcastState) -> RootedTree {
        self.rec
            .time("trees.next_tree", || self.inner.next_tree(state))
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// The benchmark's copy of `run_workload_faulty`'s round loop over the
/// public `BroadcastState` and `TrackedTokens` methods, with a span
/// around each call. The tests pin it to the library runner report for
/// report.
pub fn dense_rounds<S, W, F>(
    n: usize,
    source: &mut S,
    workload: &W,
    faults: &mut F,
    config: SimulationConfig,
    rec: &Recorder,
    counters: &mut Counters,
) -> WorkloadReport
where
    S: TreeSource + ?Sized,
    W: Workload + ?Sized,
    F: FaultModel + ?Sized,
{
    let mut state = BroadcastState::new(n);
    let mut tracked = match workload.sources(n) {
        SourceSet::All => None,
        SourceSet::Nodes(sources) => Some(TrackedTokens::new(n, &sources)),
    };
    let progress_of = |state: &BroadcastState, tracked: &Option<TrackedTokens>| match tracked {
        Some(t) => t.progress(),
        None => full_state_progress(state),
    };
    let full_disseminated = |progress: &WorkloadProgress,
                             tracked: &Option<TrackedTokens>,
                             state: &BroadcastState| match tracked {
        None => progress.disseminated,
        Some(_) => state.disseminated_count(),
    };

    let mut progress = progress_of(&state, &tracked);
    let mut completion_time = workload.is_complete(&progress).then_some(0);
    let mut broadcast_time = (full_disseminated(&progress, &tracked, &state) >= 1).then_some(0);
    let mut fault_log: Vec<RoundFaults> = Vec::new();
    let mut round_matrix = BoolMatrix::zeros(n);

    while completion_time.is_none() && state.round() < config.max_rounds {
        let mut rf = faults.faults(state.round() + 1, n);
        rf.normalize(n);
        let tree = source.next_tree(&state);
        let tree = match rf.root {
            Some(r) => rec.time("trees.reroot", || tree.rerooted(r)),
            None => tree,
        };
        if rf.is_quiet() {
            rec.time("core.dense.state_apply", || state.apply(&tree));
            if let Some(t) = tracked.as_mut() {
                rec.time("core.dense.tracked_apply", || t.apply(&tree));
            }
        } else {
            counters.masked_rounds += 1;
            rec.time("core.dense.mask", || {
                round_matrix.clear();
                round_matrix.add_self_loops();
                let is_offline = |v| rf.offline.binary_search(&v).is_ok();
                for y in 0..n {
                    if let Some(p) = tree.parent(y) {
                        if !is_offline(p) && !is_offline(y) {
                            round_matrix.set(p, y, true);
                        }
                    }
                }
            });
            rec.time("core.dense.state_apply", || {
                state.apply_matrix(&round_matrix);
            });
            if let Some(t) = tracked.as_mut() {
                rec.time("core.dense.tracked_apply", || t.apply_matrix(&round_matrix));
            }
            rec.time("core.dense.forget", || {
                for &y in &rf.losses {
                    state.forget(y);
                    if let Some(t) = tracked.as_mut() {
                        t.forget(y);
                    }
                }
            });
        }
        rec.time("trees.drop", || drop(tree));
        counters.dense_rounds += 1;
        fault_log.push(rf);
        let open = rec.open("core.dense.progress");
        progress = progress_of(&state, &tracked);
        if workload.is_complete(&progress) {
            completion_time = Some(progress.round);
        }
        if broadcast_time.is_none() && full_disseminated(&progress, &tracked, &state) >= 1 {
            broadcast_time = Some(state.round());
        }
        rec.close(open);
    }

    WorkloadReport {
        n,
        workload: workload.name(),
        source: source.name(),
        rounds: state.round(),
        outcome: if completion_time.is_some() {
            WorkloadOutcome::Completed
        } else {
            WorkloadOutcome::RoundLimit
        },
        completion_time,
        broadcast_time,
        disseminated: progress.disseminated,
        tokens: progress.tokens,
        fault_log,
    }
}

/// The benchmark's copy of `run_workload_frontier_faulty`'s round loop
/// over the public `FrontierSource` and `FrontierState` methods, with a
/// span around each call. The tests pin it to the library runner report
/// for report.
pub fn frontier_rounds<W, F>(
    n: usize,
    source: &mut FrontierSource,
    workload: &W,
    faults: &mut F,
    config: SimulationConfig,
    rec: &Recorder,
    counters: &mut Counters,
) -> WorkloadReport
where
    W: Workload + ?Sized,
    F: FaultModel + ?Sized,
{
    let sources = match workload.sources(n) {
        SourceSet::All => (0..n).collect(),
        SourceSet::Nodes(nodes) => nodes,
    };
    let mut state = FrontierState::new(n, &sources);
    let mut progress = state.progress();
    let mut completion_time = workload.is_complete(&progress).then_some(0);
    let mut broadcast_time = (progress.disseminated >= 1).then_some(0);
    let mut fault_log: Vec<RoundFaults> = Vec::new();

    while completion_time.is_none() && state.round() < config.max_rounds {
        let mut rf = faults.faults(state.round() + 1, n);
        rf.normalize(n);
        let open = rec.open("trees.next_round");
        let round = source.next_round(n, rf.root);
        rec.close(open);
        rec.time("core.frontier.apply", || {
            state.apply_round(round.tree, round.delta, &rf.offline);
        });
        if !rf.losses.is_empty() {
            rec.time("core.frontier.forget", || {
                for &y in &rf.losses {
                    state.forget(y);
                }
            });
        }
        counters.frontier_rounds += 1;
        fault_log.push(rf);
        let open = rec.open("core.frontier.progress");
        progress = state.progress();
        if workload.is_complete(&progress) {
            completion_time = Some(progress.round);
        }
        if broadcast_time.is_none() && progress.disseminated >= 1 {
            broadcast_time = Some(state.round());
        }
        rec.close(open);
    }

    WorkloadReport {
        n,
        workload: workload.name(),
        source: source.name(),
        rounds: state.round(),
        outcome: if completion_time.is_some() {
            WorkloadOutcome::Completed
        } else {
            WorkloadOutcome::RoundLimit
        },
        completion_time,
        broadcast_time,
        disseminated: progress.disseminated,
        tokens: progress.tokens,
        fault_log,
    }
}

/// Replica `index` of a synchronous cell, with the inputs
/// `treecast_montecarlo::run_replica` derives for it.
fn run_synchronous(
    spec: &RunSpec,
    index: usize,
    rec: &Recorder,
    counters: &mut Counters,
) -> WorkloadReport {
    let n = spec.n;
    let seed = replica_seed(spec.base_seed, index);
    let workload = KSourceBroadcast::evenly_spread(n, spec.k);
    let mut faults = TimedFaults::new(spec.faults.model(seed), rec);
    let config = SimulationConfig::for_n(n).with_max_rounds(spec.round_budget);
    let tree_seed = splitmix64(seed ^ TREE_STREAM_TWEAK);
    let report = if spec.uses_frontier() {
        let mut source = match spec.trees {
            TreeSpec::Path => FrontierSource::fixed(generators::path(n)),
            TreeSpec::Star => FrontierSource::fixed(generators::star(n)),
            TreeSpec::SeededUniform => FrontierSource::seeded(n, tree_seed),
        };
        let report = frontier_rounds(
            n,
            &mut source,
            &workload,
            &mut faults,
            config,
            rec,
            counters,
        );
        if spec.trees == TreeSpec::SeededUniform {
            counters.trees_drawn += report.rounds;
        }
        report
    } else {
        let mut source = dense_source(spec.trees, n, tree_seed, spec.round_budget, rec, counters);
        dense_rounds(
            n,
            &mut source,
            &workload,
            &mut faults,
            config,
            rec,
            counters,
        )
    };
    counters.fault_events += faults.events;
    report
}

/// The timed dense [`TreeSource`] both replica runners build for a
/// replica: a fixed tree, or the seeded stream pre-drawn for the whole
/// round budget by `FrontierSource::dense_twin`.
fn dense_source<'r>(
    trees: TreeSpec,
    n: usize,
    tree_seed: u64,
    round_budget: u64,
    rec: &'r Recorder,
    counters: &mut Counters,
) -> TimedTrees<'r, Box<dyn TreeSource>> {
    let source: Box<dyn TreeSource> = match trees {
        TreeSpec::Path => Box::new(StaticSource::new(generators::path(n))),
        TreeSpec::Star => Box::new(StaticSource::new(generators::star(n))),
        TreeSpec::SeededUniform => {
            counters.trees_drawn += round_budget.max(1);
            rec.time("trees.predraw", || {
                FrontierSource::seeded(n, tree_seed).dense_twin(round_budget)
            })
        }
    };
    TimedTrees::new(source, rec)
}

/// Replica `index` of an emulation cell, with the inputs
/// `EmulationSpec::run_one` derives for it, on the library's traced
/// runner. A round's span is the gap between two hook calls.
fn run_emulated(
    spec: &EmulationSpec,
    index: usize,
    rec: &Recorder,
    counters: &mut Counters,
) -> WorkloadReport {
    let n = spec.n;
    let seed = replica_seed(spec.base_seed, index);
    let workload = KSourceBroadcast::evenly_spread(n, spec.k);
    let mut faults = TimedFaults::new(spec.faults.model(seed), rec);
    let config = SimulationConfig::for_n(n).with_max_rounds(spec.round_budget);
    let tree_seed = splitmix64(seed ^ TREE_STREAM_TWEAK);
    let mut source = dense_source(spec.trees, n, tree_seed, spec.round_budget, rec, counters);
    let mut last = rec.now_ns();
    let mut first = rec.mark();
    let report = run_emulation_traced(
        n,
        &mut source,
        &workload,
        &spec.knobs,
        &mut faults,
        config,
        |_, _, emu| {
            rec.record_gap("emulation.round", last, rec.now_ns(), first);
            counters.emulation_rounds += 1;
            if rec.is_enabled() {
                let pending = emu.pending_messages() as u64;
                counters.pending_max = counters.pending_max.max(pending);
                counters.pending_sum += pending;
            }
            last = rec.now_ns();
            first = rec.mark();
        },
    );
    counters.fault_events += faults.events;
    report
}

/// The outcome the replica pool records for a report.
#[must_use]
pub fn outcome_of(report: &WorkloadReport) -> ReplicaOutcome {
    ReplicaOutcome {
        rounds: match report.outcome {
            WorkloadOutcome::Completed => report.completion_time,
            WorkloadOutcome::RoundLimit => None,
        },
    }
}

/// One traced replica's spans and counts.
struct ReplicaTrace {
    index: usize,
    spans: Vec<Span>,
    counters: Counters,
}

/// A [`ReplicaSource`] running each replica through
/// [`Cell::run_instrumented`]: traced when built by
/// [`Instrumented::traced`], a plain reference runner otherwise.
pub struct Instrumented<'a> {
    cell: &'a Cell,
    epoch: Option<Instant>,
    id_base: u64,
    sink: Mutex<Vec<ReplicaTrace>>,
}

impl<'a> Instrumented<'a> {
    /// A reference runner: no spans are recorded.
    #[must_use]
    pub fn reference(cell: &'a Cell) -> Self {
        Instrumented {
            cell,
            epoch: None,
            id_base: 0,
            sink: Mutex::new(Vec::new()),
        }
    }

    /// A traced runner on the run-wide clock `epoch`; replica `i` is
    /// tagged with id `id_base + i`.
    #[must_use]
    pub fn traced(cell: &'a Cell, epoch: Instant, id_base: u64) -> Self {
        Instrumented {
            epoch: Some(epoch),
            id_base,
            ..Instrumented::reference(cell)
        }
    }

    /// The recorded spans (replica order) and the merged counters.
    ///
    /// # Panics
    ///
    /// Panics if a replica thread panicked while holding the sink.
    #[must_use]
    pub fn finish(self) -> (Trace, Counters) {
        let mut replicas = self.sink.into_inner().expect("replica sink poisoned");
        replicas.sort_by_key(|r| r.index);
        let mut counters = Counters::default();
        let mut trace = Trace::default();
        for r in replicas {
            counters.merge(&r.counters);
            trace.extend(r.spans);
        }
        (trace, counters)
    }
}

impl ReplicaSource for Instrumented<'_> {
    fn n(&self) -> usize {
        self.cell.source().n()
    }

    fn k(&self) -> usize {
        self.cell.source().k()
    }

    fn replicas(&self) -> usize {
        self.cell.source().replicas()
    }

    fn round_budget(&self) -> u64 {
        self.cell.source().round_budget()
    }

    fn workload_label(&self) -> String {
        self.cell.source().workload_label()
    }

    fn source_label(&self) -> String {
        self.cell.source().source_label()
    }

    fn fault_label(&self) -> String {
        self.cell.source().fault_label()
    }

    fn run_replica(&self, index: usize) -> ReplicaOutcome {
        let rec = match self.epoch {
            Some(epoch) => Recorder::new(epoch),
            None => Recorder::disabled(),
        };
        rec.set_id(self.id_base + index as u64);
        let mut counters = Counters::default();
        let open = rec.open("montecarlo.replica");
        let report = self.cell.run_instrumented(index, &rec, &mut counters);
        rec.close(open);
        counters.rounds += report.rounds;
        if rec.is_enabled() {
            self.sink
                .lock()
                .expect("replica sink poisoned")
                .push(ReplicaTrace {
                    index,
                    spans: rec.into_spans(),
                    counters,
                });
        }
        outcome_of(&report)
    }
}

/// A [`ReplicaSource`] that records each replica's wall time, and the
/// calibration kernel's time just before it on the same thread.
struct Timed<'a> {
    inner: &'a dyn ReplicaSource,
    ns: Vec<AtomicU64>,
    kernel_ns: Vec<AtomicU64>,
}

impl<'a> Timed<'a> {
    fn new(inner: &'a dyn ReplicaSource) -> Self {
        Timed {
            inner,
            ns: (0..inner.replicas()).map(|_| AtomicU64::new(0)).collect(),
            kernel_ns: (0..inner.replicas()).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn seconds(ns: &[AtomicU64]) -> Vec<f64> {
        ns.iter()
            .map(|ns| ns.load(Ordering::Relaxed) as f64 * 1e-9)
            .collect()
    }
}

impl ReplicaSource for Timed<'_> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn k(&self) -> usize {
        self.inner.k()
    }

    fn replicas(&self) -> usize {
        self.inner.replicas()
    }

    fn round_budget(&self) -> u64 {
        self.inner.round_budget()
    }

    fn workload_label(&self) -> String {
        self.inner.workload_label()
    }

    fn source_label(&self) -> String {
        self.inner.source_label()
    }

    fn fault_label(&self) -> String {
        self.inner.fault_label()
    }

    fn run_replica(&self, index: usize) -> ReplicaOutcome {
        let kernel_s = metrics::calibrate();
        self.kernel_ns[index].store((kernel_s * 1e9) as u64, Ordering::Relaxed);
        let start = Instant::now();
        let outcome = self.inner.run_replica(index);
        self.ns[index].store(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        outcome
    }
}

/// Untraced pool batches: each batch's cell and outcomes, and its
/// replica and wall times (one window per batch).
struct Batches {
    cells: Vec<Cell>,
    outcomes: Vec<Vec<ReplicaOutcome>>,
    windows: Windows,
}

/// Runs whole pool batches of `base` through the library, re-seeded per
/// batch from `seed`, and stops where the run ends nearest `seconds`
/// (after at least one batch).
fn run_batches(base: &Cell, seed: u64, seconds: f64, threads: usize) -> Batches {
    let mut batches = Batches {
        cells: Vec::new(),
        outcomes: Vec::new(),
        windows: Windows::default(),
    };
    let start = Instant::now();
    loop {
        let cell = batch_cell(base, seed, batches.cells.len());
        let timed = Timed::new(cell.source());
        let t0 = Instant::now();
        let outcomes = run_replicas_from(&timed, threads);
        // The wall time includes each worker's calibration kernels; take
        // the slowest worker's share back out.
        let kernels = Timed::seconds(&timed.kernel_ns);
        let per_worker = kernels.chunks(kernels.len().div_ceil(threads.max(1)));
        let kernel_wall = per_worker
            .map(|c| c.iter().sum::<f64>())
            .fold(0.0, f64::max);
        batches
            .windows
            .wall_s
            .push(t0.elapsed().as_secs_f64() - kernel_wall);
        batches.windows.op_s.push(Timed::seconds(&timed.ns));
        batches.windows.kernel_s.push(metrics::median(&kernels));
        batches.cells.push(cell);
        batches.outcomes.push(outcomes);
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / batches.cells.len() as f64 / 2.0 >= seconds {
            return batches;
        }
    }
}

/// Batch `b`'s cell: `base` re-seeded from the run seed.
fn batch_cell(base: &Cell, seed: u64, b: usize) -> Cell {
    let batch_seed = replica_seed(seed, b);
    match base {
        Cell::Synchronous(spec) => Cell::Synchronous(spec.clone().with_seed(batch_seed)),
        Cell::Emulated(spec) => Cell::Emulated(spec.clone().with_seed(batch_seed)),
    }
}

fn mismatches(a: &[ReplicaOutcome], b: &[ReplicaOutcome]) -> u64 {
    assert_eq!(a.len(), b.len(), "outcome lists must align");
    a.iter().zip(b).filter(|(x, y)| x != y).count() as u64
}

/// The untraced run: end-to-end metrics, every replica checked against
/// the instrumented reference runner.
#[must_use]
pub fn measure(shape: &ReplicaShape, seed: u64, seconds: f64, threads: usize) -> Outcome {
    let (sample_s, base) = median_timed(SETUP_SAMPLES, || {
        for _ in 1..SETUP_BUILDS {
            std::hint::black_box(shape.cell(std::hint::black_box(seed)));
        }
        shape.cell(seed)
    });
    let setup_s = sample_s / SETUP_BUILDS as f64;
    // The memory high-water mark is read after one pool batch on a single
    // thread, before the timed batches. Two pool threads allocate through
    // separate malloc arenas, and how much those keep resident depends on
    // how the threads interleave: on emu-seeded-bw8 the mark of the whole
    // run read 35.6 or 49 MiB for the same inputs. One thread allocates
    // the same way every run.
    std::hint::black_box(run_replicas_from(base.source(), 1));
    let peak_rss_mib = metrics::peak_rss_mib();
    let batches = run_batches(&base, seed, seconds, threads);
    let mut failed = 0;
    for (cell, outcomes) in batches.cells.iter().zip(&batches.outcomes) {
        let reference = run_replicas_from(&Instrumented::reference(cell), threads);
        failed += mismatches(outcomes, &reference);
    }
    let windows = &batches.windows;
    Outcome {
        attempted: windows.ops() as u64,
        failed,
        metrics: vec![
            ("setup_s", setup_s),
            ("ops_per_s", windows.pooled_rate()),
            ("serial_ops_per_s", windows.serial_rate()),
            ("op_p50_us", windows.p50_us()),
            ("op_tail_us", windows.tail_us()),
            ("peak_rss_mib", peak_rss_mib),
        ],
    }
}

/// The traced run: about half the run untraced, then the same batches
/// traced. Per-layer metrics come from the traced batches; each traced
/// replica's outcome is checked against the untraced one.
#[must_use]
pub fn trace(shape: &ReplicaShape, seed: u64, seconds: f64, threads: usize) -> (Outcome, Trace) {
    let base = shape.cell(seed);
    let untraced = run_batches(&base, seed, seconds / 2.0, threads);
    let epoch = Instant::now();
    let mut trace = Trace::default();
    let mut counters = Counters::default();
    let mut traced_wall_s = 0.0;
    let mut failed = 0;
    let mut outcomes = Vec::new();
    for (b, (cell, want)) in untraced.cells.iter().zip(&untraced.outcomes).enumerate() {
        let source = Instrumented::traced(cell, epoch, (b * shape.replicas) as u64);
        let t0 = Instant::now();
        let got = run_replicas_from(&source, threads);
        traced_wall_s += t0.elapsed().as_secs_f64();
        failed += mismatches(want, &got);
        outcomes.extend(got);
        let (batch_trace, batch_counters) = source.finish();
        trace.extend(batch_trace.spans().to_vec());
        counters.merge(&batch_counters);
    }
    let censored = outcomes.iter().filter(|o| o.rounds.is_none()).count() as f64;
    let untraced_wall_s: f64 = untraced.windows.wall_s.iter().sum();
    let untraced_busy_s: f64 = untraced.windows.op_s.iter().flatten().sum();
    let busy_s = trace.total_s("montecarlo.replica");
    let layers = trace.self_s_by_layer();
    let layer_s = |layer: &str| layers.get(layer).copied().unwrap_or(0.0);
    let rounds = counters.rounds as f64;
    let drawn = counters.trees_drawn as f64;
    let dense = counters.dense_rounds as f64;
    let frontier = counters.frontier_rounds as f64;
    let emulated = counters.emulation_rounds as f64;
    // Random trees are drawn up front by the dense twin, or one per round
    // by a seeded frontier source.
    let drawing_s = trace.total_s("trees.predraw")
        + if shape.trees == TreeSpec::SeededUniform {
            trace.total_s("trees.next_round")
        } else {
            0.0
        };
    let mut values = vec![
        ("montecarlo.replica_busy_s", busy_s),
        (
            "montecarlo.pool_efficiency",
            ratio(busy_s, threads as f64 * traced_wall_s),
        ),
        ("montecarlo.replicas", outcomes.len() as f64),
        ("montecarlo.censored", censored),
        ("montecarlo.total_rounds", rounds),
        (
            "trees.sample_s",
            trace.total_s("trees.next_tree") + trace.total_s("trees.next_round"),
        ),
        ("trees.trees_sampled", drawn),
        ("trees.ns_per_tree", ratio(1e9 * drawing_s, drawn)),
        ("trees.predraw_s", trace.total_s("trees.predraw")),
        ("trees.drawn_per_round", ratio(drawn, rounds)),
        ("core.faults_s", trace.total_s("core.scenario.faults")),
        ("core.fault_events", counters.fault_events as f64),
        ("core.dense.rounds", dense),
        (
            "core.dense.ns_per_round",
            ratio(1e9 * layer_s("core.dense"), dense),
        ),
        (
            "core.dense.masked_frac",
            ratio(counters.masked_rounds as f64, dense),
        ),
        (
            "core.dense.state_apply_s",
            trace.total_s("core.dense.state_apply"),
        ),
        (
            "core.dense.tracked_apply_s",
            trace.total_s("core.dense.tracked_apply"),
        ),
        ("core.frontier.rounds", frontier),
        (
            "core.frontier.apply_s",
            trace.total_s("core.frontier.apply"),
        ),
        (
            "core.frontier.ns_per_round",
            ratio(1e9 * layer_s("core.frontier"), frontier),
        ),
        ("emulation.rounds", emulated),
        (
            "emulation.ns_per_round",
            ratio(1e9 * layer_s("emulation"), emulated),
        ),
        ("emulation.pending_max", counters.pending_max as f64),
        ("emulation.pending_sum", counters.pending_sum as f64),
        ("trace.overhead", ratio(traced_wall_s, untraced_wall_s)),
    ];
    values.extend(self_time_metrics(&trace, untraced_busy_s));
    let outcome = Outcome {
        attempted: outcomes.len() as u64,
        failed,
        metrics: metrics::per_layer(&values),
    };
    (outcome, trace)
}

/// `self_s.<layer>` for every reported layer, plus the ratio of all self
/// time to the untraced busy time of the same work.
#[must_use]
pub fn self_time_metrics(trace: &Trace, untraced_busy_s: f64) -> Vec<(&'static str, f64)> {
    let layers = trace.self_s_by_layer();
    let mut values: Vec<(&'static str, f64)> = metrics::LAYERS
        .iter()
        .map(|&(layer, name)| (name, layers.get(layer).copied().unwrap_or(0.0)))
        .collect();
    values.push((
        "trace.self_over_untraced",
        ratio(layers.values().sum(), untraced_busy_s),
    ));
    values
}
