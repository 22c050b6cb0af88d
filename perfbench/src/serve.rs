//! The serving workload: a Zipf-skewed closed loop of `BroadcastTime`
//! requests against `treecast-server`, whose working set is larger than
//! the cache, followed by a `serve_batch` pass.
//!
//! One client sends its next request when the previous answer arrives.
//! Requests are materialized once per pool rank in set-up, so the timed
//! loop holds no marshalling. The traced run serves the same request
//! stream on a fresh server through the benchmark's own copy of
//! `Server::serve` for this request kind, wrapping the cache-backed
//! [`PrefixProvider`] so each round's lookup is timed and classed as a hit
//! or a miss by the change in the server's counters.

use std::time::Instant;

use treecast_client::{LoadConfig, LoadGen};
use treecast_core::prefix::{run_workload_prefixes, PrefixProvider, PrefixRound};
use treecast_core::{run_workload, SequenceSource, SimulationConfig, WorkloadReport};
use treecast_server::fingerprint::tree_hash;
use treecast_server::{
    CacheConfig, CachedPrefixes, Request, Response, Server, ServerConfig, WorkloadSpec,
};
use treecast_trees::RootedTree;

use crate::metrics::{self, median_timed, ratio, Outcome, Windows};
use crate::replica::self_time_metrics;
use crate::trace::{Recorder, Trace};

/// Repetitions of the serving set-up whose median is `setup_s`.
const SETUP_REPS: usize = 3;

/// Length of the pre-drawn Zipf rank stream; a run longer than this
/// replays it from the start.
const RANK_STREAM: usize = 1 << 17;

/// Share of the untraced run spent in the serial closed loop; the rest
/// goes to `serve_batch`.
const SERIAL_SHARE: f64 = 0.6;

/// Requests per window of the serial loop (its p99 has ten samples
/// beyond it).
const SERIAL_WINDOW: usize = 1000;

/// `serve_batch` calls per window of the batch pass.
const BATCH_WINDOW: usize = 8;

/// The serving workload's shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeShape {
    /// Processes per tree.
    pub n: usize,
    /// Distinct tree sequences (Zipf ranks).
    pub pool_size: usize,
    /// Trees per sequence; also each request's round cap.
    pub seq_len: usize,
    /// Zipf exponent over ranks.
    pub zipf_s: f64,
    /// Requests per `serve_batch` call.
    pub batch: usize,
}

/// Everything the timed loops use, built in set-up.
pub struct Inputs {
    /// One materialized request per pool rank.
    pub requests: Vec<Request>,
    /// The Zipf rank stream the client replays.
    pub ranks: Vec<u16>,
    /// The server, default cache geometry, not primed.
    pub server: Server,
}

impl Inputs {
    fn rank(&self, i: usize) -> usize {
        usize::from(self.ranks[i % self.ranks.len()])
    }
}

/// Builds the request pool, the rank stream and the server for `seed`.
///
/// # Panics
///
/// Panics if the pool has more ranks than a `u16` holds.
#[must_use]
pub fn setup(shape: &ServeShape, seed: u64, workers: usize) -> Inputs {
    assert!(shape.pool_size <= usize::from(u16::MAX), "pool too large");
    let mut gen = LoadGen::new(LoadConfig {
        n: shape.n,
        pool_size: shape.pool_size,
        seq_len: shape.seq_len,
        requests: RANK_STREAM,
        zipf_s: shape.zipf_s,
        seed,
        workload: WorkloadSpec::Gossip,
        rounds: shape.seq_len as u64,
    });
    let requests = gen
        .pool()
        .iter()
        .map(|trees| Request::BroadcastTime {
            tree_sequence: trees.clone(),
            workload: gen.config().workload.clone(),
            rounds: gen.config().rounds,
        })
        .collect();
    let ranks = (0..RANK_STREAM).map(|_| gen.sample_rank() as u16).collect();
    Inputs {
        requests,
        ranks,
        server: Server::new(ServerConfig {
            workers,
            cache: CacheConfig::default(),
        }),
    }
}

/// The round cap `Server` applies to a request (`0` = engine default).
fn config_for(n: usize, rounds: u64) -> SimulationConfig {
    match rounds {
        0 => SimulationConfig::for_n(n),
        cap => SimulationConfig::for_n(n).with_max_rounds(cap),
    }
}

/// Each rank's expected report: `run_workload` over a `SequenceSource` on
/// the dense engine, independent of the prefix cache.
///
/// # Panics
///
/// Panics on a request the pool cannot produce (not `BroadcastTime`, or
/// an invalid workload).
#[must_use]
pub fn references(requests: &[Request]) -> Vec<WorkloadReport> {
    requests
        .iter()
        .map(|request| {
            let Request::BroadcastTime {
                tree_sequence,
                workload,
                rounds,
            } = request
            else {
                panic!("the pool holds BroadcastTime requests only");
            };
            let n = tree_sequence[0].n();
            let workload = workload.workload(n).expect("pool workloads are valid");
            let mut source = SequenceSource::new(tree_sequence.clone());
            run_workload(n, &mut source, &*workload, config_for(n, *rounds))
        })
        .collect()
}

fn is_correct(response: &Response, reference: &WorkloadReport) -> bool {
    matches!(response, Response::BroadcastTime { report } if report == reference)
}

/// The untraced run: serial closed loop, then `serve_batch`; every
/// response checked against its rank's reference.
#[must_use]
pub fn measure(shape: &ServeShape, seed: u64, seconds: f64, workers: usize) -> Outcome {
    let (setup_s, mut inputs) = median_timed(SETUP_REPS, || setup(shape, seed, workers));
    let refs = references(&inputs.requests);
    let mut failed = 0u64;
    let mut serial = Windows::default();
    let mut latencies_s = Vec::with_capacity(SERIAL_WINDOW);
    let mut next = 0;
    let start = Instant::now();
    // Whole windows only, and at least one.
    while serial.op_s.is_empty() || start.elapsed().as_secs_f64() < seconds * SERIAL_SHARE {
        let rank = inputs.rank(next);
        next += 1;
        let t0 = Instant::now();
        let response = inputs.server.serve(&inputs.requests[rank]);
        latencies_s.push(t0.elapsed().as_secs_f64());
        failed += u64::from(!is_correct(&response, &refs[rank]));
        if latencies_s.len() == SERIAL_WINDOW {
            serial.op_s.push(std::mem::take(&mut latencies_s));
        }
    }
    let served = next;
    // Read before `serve_batch` runs on several threads, whose malloc
    // arenas keep a share resident that depends on how they interleave.
    let peak_rss_mib = metrics::peak_rss_mib();
    let (batched, batch_failed) =
        serve_batches(&mut inputs, &refs, shape.batch, &mut next, start, seconds);
    failed += batch_failed;
    Outcome {
        attempted: (served + batched.ops()) as u64,
        failed,
        metrics: vec![
            ("setup_s", setup_s),
            ("ops_per_s", batched.pooled_rate()),
            ("serial_ops_per_s", serial.serial_rate()),
            ("op_p50_us", serial.p50_us()),
            ("op_tail_us", serial.tail_us()),
            ("peak_rss_mib", peak_rss_mib),
        ],
    }
}

/// `serve_batch` calls until `seconds` after `start`, in windows of
/// [`BATCH_WINDOW`] calls (at least one window). Each call serves the next
/// `batch` distinct ranks of the Zipf stream from `next` on, moved out of
/// the per-rank requests and back, so no request is copied. Returns the
/// windows (each request carries its call's wall time divided evenly)
/// and the wrong answers.
fn serve_batches(
    inputs: &mut Inputs,
    refs: &[WorkloadReport],
    batch: usize,
    next: &mut usize,
    start: Instant,
    seconds: f64,
) -> (Windows, u64) {
    let batch = batch.min(inputs.requests.len());
    let mut windows = Windows::default();
    let (mut wall_s, mut calls, mut failed) = (0.0, 0, 0u64);
    let mut taken = vec![false; inputs.requests.len()];
    loop {
        taken.fill(false);
        let mut ranks = Vec::with_capacity(batch);
        while ranks.len() < batch {
            let rank = inputs.rank(*next);
            *next += 1;
            if !std::mem::replace(&mut taken[rank], true) {
                ranks.push(rank);
            }
        }
        let requests: Vec<Request> = ranks
            .iter()
            .map(|&r| std::mem::replace(&mut inputs.requests[r], placeholder()))
            .collect();
        let t0 = Instant::now();
        let responses = inputs.server.serve_batch(&requests);
        wall_s += t0.elapsed().as_secs_f64();
        calls += 1;
        for ((&r, request), response) in ranks.iter().zip(requests).zip(&responses) {
            failed += u64::from(!is_correct(response, &refs[r]));
            inputs.requests[r] = request;
        }
        if calls == BATCH_WINDOW {
            let per_request = wall_s / (calls * batch) as f64;
            windows.op_s.push(vec![per_request; calls * batch]);
            windows.wall_s.push(wall_s);
            (wall_s, calls) = (0.0, 0);
            if start.elapsed().as_secs_f64() >= seconds {
                return (windows, failed);
            }
        }
    }
}

/// Holds a rank's slot while its request is lent to a batch.
fn placeholder() -> Request {
    Request::BroadcastTime {
        tree_sequence: Vec::new(),
        workload: WorkloadSpec::Gossip,
        rounds: 0,
    }
}

/// A [`PrefixProvider`] wrapper that times each round's lookup and names
/// its span a hit or a miss from the change in the server's counters.
pub struct TimedPrefixes<'a> {
    inner: CachedPrefixes<'a>,
    server: &'a Server,
    rec: &'a Recorder,
    misses: &'a mut u64,
    /// Rounds requested through this provider.
    pub lookups: u64,
}

impl PrefixProvider for TimedPrefixes<'_> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn next_prefix(&mut self) -> Option<PrefixRound<'_>> {
        self.lookups += 1;
        let open = self.rec.open("server.prefix_hit");
        let round = self.inner.next_prefix();
        let index = self.rec.close(open);
        if self.rec.is_enabled() {
            let misses = self.server.stats().misses;
            if misses != *self.misses {
                self.rec.rename(index, "server.prefix_miss");
                *self.misses = misses;
            }
        }
        round
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// The benchmark's copy of `Server::serve` for a `BroadcastTime`
/// request, over [`TimedPrefixes`]. `misses` carries the server's miss
/// counter between requests; `lookups` accumulates the rounds the
/// provider served.
///
/// # Errors
///
/// The message `Server::serve` would answer with for an invalid request.
pub fn serve_traced(
    server: &Server,
    request: &Request,
    rec: &Recorder,
    misses: &mut u64,
    lookups: &mut u64,
) -> Result<WorkloadReport, String> {
    let Request::BroadcastTime {
        tree_sequence,
        workload,
        rounds,
    } = request
    else {
        return Err("only BroadcastTime requests are traced".into());
    };
    let open = rec.open("server.request");
    let result = (|| {
        let n = tree_sequence.first().ok_or("empty tree sequence")?.n();
        if tree_sequence.iter().any(|t| t.n() != n) {
            return Err("trees in a sequence must share n".to_string());
        }
        let workload = workload.workload(n)?;
        let inner = rec.time("server.provider", || {
            CachedPrefixes::new(tree_sequence, server.cache())
        });
        let mut provider = TimedPrefixes {
            inner,
            server,
            rec,
            misses,
            lookups: 0,
        };
        let report = rec.time("core.prefix.run", || {
            run_workload_prefixes(&mut provider, &*workload, config_for(n, *rounds))
        });
        *lookups += provider.lookups;
        Ok(report)
    })();
    rec.close(open);
    result
}

/// The trees a request's provider hashed: one per round served, capped
/// at the sequence length (the last tree repeats).
fn hashed_trees(request: &Request, rounds: u64) -> &[RootedTree] {
    match request {
        Request::BroadcastTime { tree_sequence, .. } => {
            &tree_sequence[..(rounds as usize).min(tree_sequence.len())]
        }
        _ => &[],
    }
}

/// The traced run: an untraced serial pass and `serve_batch` pass for
/// about two thirds of the run, then the same serial request stream
/// traced on a fresh server, then a probe re-timing the tree hashes.
#[must_use]
pub fn trace(shape: &ServeShape, seed: u64, seconds: f64, workers: usize) -> (Outcome, Trace) {
    let mut inputs = setup(shape, seed, workers);
    let refs = references(&inputs.requests);
    let mut failed = 0u64;

    let start = Instant::now();
    let mut busy_s = 0.0;
    let mut count = 0;
    while start.elapsed().as_secs_f64() < seconds / 3.0 {
        let rank = inputs.rank(count);
        count += 1;
        let t0 = Instant::now();
        let response = inputs.server.serve(&inputs.requests[rank]);
        busy_s += t0.elapsed().as_secs_f64();
        failed += u64::from(!is_correct(&response, &refs[rank]));
    }
    let untraced_wall_s = start.elapsed().as_secs_f64();
    let mut next = count;
    let (batched, batch_failed) = serve_batches(
        &mut inputs,
        &refs,
        shape.batch,
        &mut next,
        Instant::now(),
        seconds / 3.0,
    );
    failed += batch_failed;
    let batch_ops = batched.ops() as u64;
    let batch_qps = batch_ops as f64 / batched.wall_s.iter().sum::<f64>();
    let batch_efficiency = ratio(batch_qps, workers as f64 * count as f64 / busy_s);

    let server = Server::new(ServerConfig {
        workers,
        cache: CacheConfig::default(),
    });
    let epoch = Instant::now();
    let rec = Recorder::new(epoch);
    let (mut misses, mut lookups) = (0u64, 0u64);
    let mut served_rounds = Vec::with_capacity(count);
    let t0 = Instant::now();
    for i in 0..count {
        let rank = inputs.rank(i);
        rec.set_id(i as u64);
        match serve_traced(
            &server,
            &inputs.requests[rank],
            &rec,
            &mut misses,
            &mut lookups,
        ) {
            Ok(report) => {
                failed += u64::from(report != refs[rank]);
                served_rounds.push(report.rounds);
            }
            Err(_) => {
                failed += 1;
                served_rounds.push(0);
            }
        }
    }
    let traced_wall_s = t0.elapsed().as_secs_f64();
    let stats = server.stats();
    // The counters and the wrapper must see the same lookups.
    failed += u64::from(stats.hits + stats.misses != lookups);

    for (i, &rounds) in served_rounds.iter().enumerate() {
        rec.set_id(i as u64);
        let trees = hashed_trees(&inputs.requests[inputs.rank(i)], rounds);
        rec.time("probe.tree_hash", || {
            for tree in trees {
                std::hint::black_box(tree_hash(std::hint::black_box(tree)));
            }
        });
    }
    let mut trace = Trace::default();
    trace.extend(rec.into_spans());

    let per_call_us = |name: &str| 1e6 * ratio(trace.total_s(name), trace.count(name) as f64);
    let mut values = vec![
        ("core.prefix.predicate_s", trace.self_s("core.prefix.run")),
        (
            "server.tree_hash_us_per_req",
            1e6 * ratio(trace.total_s("probe.tree_hash"), count as f64),
        ),
        ("server.hit_round_us", per_call_us("server.prefix_hit")),
        ("server.miss_round_us", per_call_us("server.prefix_miss")),
        ("server.hits", stats.hits as f64),
        ("server.misses", stats.misses as f64),
        ("server.hit_ratio", stats.hit_rate()),
        (
            "server.evictions",
            stats.misses.saturating_sub(stats.entries as u64) as f64,
        ),
        ("server.cache_mib", stats.bytes as f64 / f64::from(1 << 20)),
        ("server.batch_efficiency", batch_efficiency),
        ("trace.overhead", ratio(traced_wall_s, untraced_wall_s)),
    ];
    values.extend(self_time_metrics(&trace, busy_s));
    let outcome = Outcome {
        attempted: count as u64 + batch_ops,
        failed,
        metrics: metrics::per_layer(&values),
    };
    (outcome, trace)
}
