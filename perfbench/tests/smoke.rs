//! Smoke shapes of all four workloads: every metric is reported with its
//! unit, the benchmark's round-loop copies match the library runners
//! report for report, and the server's counters match the lookups the
//! provider wrapper saw.

use std::time::Instant;

use treecast_core::{
    run_workload_faulty, run_workload_frontier_faulty, FaultSpec, FrontierSource, Gossip,
    KSourceBroadcast, SimulationConfig, StaticSource, TreeSpec, Workload,
};
use treecast_emulation::{EmulationSpec, GossipKnobs};
use treecast_montecarlo::{run_replicas_from, RunSpec};
use treecast_perfbench::metrics::{Metric, END_TO_END, LAYERS, PER_LAYER};
use treecast_perfbench::replica::{dense_rounds, frontier_rounds, Cell, Counters, Instrumented};
use treecast_perfbench::serve::{references, serve_traced, setup};
use treecast_perfbench::trace::{Recorder, PROBE_LAYER};
use treecast_perfbench::workloads::{self, Shape, Size, Workload as Bench};
use treecast_trees::generators;

const SECONDS: f64 = 0.05;

fn assert_reports(json: &str, catalog: &[Metric]) {
    assert!(json.starts_with("{\"correct\": true, "), "{json}");
    assert!(json.contains("\"failed\": 0, "), "{json}");
    for metric in catalog {
        let field = format!("\"{}\": {{\"value\": ", metric.name);
        let at = json
            .find(&field)
            .unwrap_or_else(|| panic!("{} missing from {json}", metric.name));
        let entry = &json[at..at + json[at..].find('}').expect("entry ends")];
        assert!(
            entry.ends_with(&format!("\"unit\": \"{}\"", metric.unit)),
            "{entry}: want unit {}",
            metric.unit
        );
    }
}

#[test]
fn every_metric_is_reported_with_its_unit() {
    for workload in Bench::ALL {
        let shape = workload.shape(Size::Smoke);
        let outcome = workloads::measure(&shape, 7, SECONDS);
        assert_reports(&outcome.to_json(END_TO_END), END_TO_END);
        for metric in END_TO_END {
            let value = outcome.get(metric.name).expect("reported");
            assert!(
                value > 0.0,
                "{}: {} = {value}",
                workload.name(),
                metric.name
            );
        }

        let (outcome, trace) = workloads::trace(&shape, 7, SECONDS);
        assert_reports(&outcome.to_json(PER_LAYER), PER_LAYER);
        for span in trace.spans() {
            assert!(
                span.layer() == PROBE_LAYER || LAYERS.iter().any(|(l, _)| *l == span.layer()),
                "span {} has no reported layer",
                span.name
            );
        }
        let nonzero: &[&str] = match workload {
            Bench::McPathLoss => &[
                "montecarlo.replicas",
                "core.dense.rounds",
                "core.dense.masked_frac",
                "core.dense.tracked_apply_s",
                "core.fault_events",
            ],
            Bench::McSeededFrontier => &[
                "core.frontier.rounds",
                "trees.trees_sampled",
                "trees.ns_per_tree",
            ],
            Bench::ServeZipfEvict => &[
                "server.hits",
                "server.misses",
                "server.tree_hash_us_per_req",
                "core.prefix.predicate_s",
            ],
            Bench::EmuSeededBw8 => &[
                "emulation.rounds",
                "emulation.pending_max",
                "trees.predraw_s",
            ],
        };
        for name in nonzero {
            let value = outcome.get(name).expect("reported");
            assert!(value > 0.0, "{}: {name} = {value}", workload.name());
        }
    }
}

#[test]
fn benchmark_manifest_lists_every_workload_and_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    for workload in Bench::ALL {
        assert!(
            manifest.contains(&format!("\"name\": \"{}\"", workload.name())),
            "{}",
            workload.name()
        );
    }
    for metric in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            metric.name, metric.unit, metric.better
        );
        assert!(manifest.contains(&entry), "{entry}");
    }
}

fn check_dense_copy<W: Workload>(n: usize, trees: TreeSpec, workload: &W, faults: FaultSpec) {
    for seed in [1u64, 2, 3] {
        let config = SimulationConfig::for_n(n).with_max_rounds(6 * n as u64);
        let source = || match trees {
            TreeSpec::Path => Box::new(StaticSource::new(generators::path(n)))
                as Box<dyn treecast_core::TreeSource>,
            TreeSpec::Star => Box::new(StaticSource::new(generators::star(n))),
            TreeSpec::SeededUniform => {
                FrontierSource::seeded(n, seed).dense_twin(config.max_rounds)
            }
        };
        let want = run_workload_faulty(n, &mut source(), workload, &mut faults.model(seed), config);
        let rec = Recorder::new(Instant::now());
        let got = dense_rounds(
            n,
            &mut source(),
            workload,
            &mut faults.model(seed),
            config,
            &rec,
            &mut Counters::default(),
        );
        assert_eq!(got, want, "dense copy, n = {n}, seed = {seed}");
    }
}

#[test]
fn dense_copy_matches_run_workload_faulty() {
    let cocktail = FaultSpec {
        loss_permille: 60,
        dropout_permille: 40,
        dropout_rounds: 2,
        rotation_period: Some(3),
    };
    check_dense_copy(
        40,
        TreeSpec::Path,
        &KSourceBroadcast::evenly_spread(40, 1),
        FaultSpec::loss_permille(30),
    );
    check_dense_copy(
        24,
        TreeSpec::SeededUniform,
        &KSourceBroadcast::evenly_spread(24, 3),
        cocktail,
    );
    check_dense_copy(16, TreeSpec::SeededUniform, &Gossip, cocktail);
    check_dense_copy(16, TreeSpec::Star, &Gossip, FaultSpec::none());
}

#[test]
fn frontier_copy_matches_run_workload_frontier_faulty() {
    let cocktail = FaultSpec {
        loss_permille: 50,
        dropout_permille: 30,
        dropout_rounds: 2,
        rotation_period: Some(4),
    };
    for (n, k, faults) in [
        (30, 3, cocktail),
        (200, 8, FaultSpec::none()),
        (50, 50, cocktail),
    ] {
        for seed in [5u64, 6] {
            let workload = KSourceBroadcast::evenly_spread(n, k);
            let config = SimulationConfig::for_n(n).with_max_rounds(4 * n as u64);
            let want = run_workload_frontier_faulty(
                n,
                &mut FrontierSource::seeded(n, seed),
                &workload,
                &mut faults.model(seed),
                config,
            );
            let rec = Recorder::new(Instant::now());
            let got = frontier_rounds(
                n,
                &mut FrontierSource::seeded(n, seed),
                &workload,
                &mut faults.model(seed),
                config,
                &rec,
                &mut Counters::default(),
            );
            assert_eq!(got, want, "frontier copy, n = {n}, k = {k}, seed = {seed}");
        }
    }
}

#[test]
fn emulation_path_matches_run_emulation() {
    for faults in [FaultSpec::none(), FaultSpec::loss_permille(40)] {
        let spec = EmulationSpec::new(
            20,
            3,
            TreeSpec::SeededUniform,
            faults,
            GossipKnobs::unconstrained().with_bandwidth(2),
        )
        .with_replicas(4)
        .with_seed(11);
        let cell = Cell::Emulated(spec.clone());
        for index in 0..spec.replicas {
            let rec = Recorder::new(Instant::now());
            let got = cell.run_instrumented(index, &rec, &mut Counters::default());
            assert_eq!(got, spec.run_one(index), "replica {index}");
        }
    }
}

#[test]
fn instrumented_replicas_match_the_library_pool() {
    let cells = [
        Cell::Synchronous(
            RunSpec::new(40, 1, TreeSpec::Path, FaultSpec::loss_permille(30))
                .with_replicas(6)
                .with_seed(3),
        ),
        Cell::Synchronous(
            RunSpec::new(24, 4, TreeSpec::SeededUniform, FaultSpec::loss_permille(20))
                .with_replicas(6)
                .with_seed(4),
        ),
        // Above DENSE_MAX_N: the frontier engine.
        Cell::Synchronous(
            RunSpec::new(1100, 4, TreeSpec::SeededUniform, FaultSpec::none())
                .with_replicas(4)
                .with_seed(5),
        ),
    ];
    for cell in &cells {
        let want = run_replicas_from(cell.source(), 2);
        assert_eq!(run_replicas_from(&Instrumented::reference(cell), 2), want);
        let traced = Instrumented::traced(cell, Instant::now(), 0);
        assert_eq!(run_replicas_from(&traced, 2), want);
        let (trace, counters) = traced.finish();
        assert_eq!(trace.count("montecarlo.replica"), want.len() as u64);
        assert!(counters.rounds > 0);
    }
}

#[test]
fn server_counters_match_wrapper_lookups() {
    let Shape::Serve(shape) = Bench::ServeZipfEvict.shape(Size::Smoke) else {
        panic!("the serving workload has a serving shape");
    };
    let inputs = setup(&shape, 9, 2);
    let refs = references(&inputs.requests);
    let rec = Recorder::new(Instant::now());
    let (mut misses, mut lookups) = (0u64, 0u64);
    for &rank in inputs.ranks.iter().take(200) {
        let rank = usize::from(rank);
        let report = serve_traced(
            &inputs.server,
            &inputs.requests[rank],
            &rec,
            &mut misses,
            &mut lookups,
        )
        .expect("pool requests are valid");
        assert_eq!(report, refs[rank]);
    }
    let stats = inputs.server.stats();
    assert!(stats.hits > 0 && stats.misses > 0, "{stats:?}");
    assert_eq!(stats.hits + stats.misses, lookups);
    let mut trace = treecast_perfbench::trace::Trace::default();
    trace.extend(rec.into_spans());
    assert_eq!(trace.count("server.prefix_miss"), stats.misses);
    assert_eq!(trace.count("server.prefix_hit"), stats.hits);
}
