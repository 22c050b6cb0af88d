//! Per-strategy cost of a full adversarial run (experiments E1/E2/E10's
//! compute budget).

use criterion::{criterion_group, criterion_main, Criterion};
use treecast_adversary::{
    ArborescencePool, BeamSearchAdversary, FreezeLeaderAdversary, GreedyAdversary, MinMaxReach,
    StructuredPool, SurvivalAdversary,
};
use treecast_core::{run_workload, Broadcast, SimulationConfig};

const N: usize = 32;

fn bench_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("adversary_full_run_n32");
    group.sample_size(10);
    group.bench_function("freeze_leader", |b| {
        b.iter(|| {
            let mut adv = FreezeLeaderAdversary::new();
            run_workload(N, &mut adv, &Broadcast, SimulationConfig::for_n(N)).rounds
        });
    });
    group.bench_function("greedy_structured_max_reach", |b| {
        b.iter(|| {
            let mut adv = GreedyAdversary::new(StructuredPool::new(), MinMaxReach);
            run_workload(N, &mut adv, &Broadcast, SimulationConfig::for_n(N)).rounds
        });
    });
    group.bench_function("survival_greedy", |b| {
        b.iter(|| {
            let mut adv = SurvivalAdversary::default();
            run_workload(N, &mut adv, &Broadcast, SimulationConfig::for_n(N)).rounds
        });
    });
    group.finish();
}

fn bench_beam(c: &mut Criterion) {
    let mut group = c.benchmark_group("adversary_beam_n16");
    group.sample_size(10);
    group.bench_function("survival_beam_16", |b| {
        b.iter(|| {
            let mut adv = BeamSearchAdversary::new(ArborescencePool::new(4), 16);
            run_workload(16, &mut adv, &Broadcast, SimulationConfig::for_n(16)).rounds
        });
    });
    group.finish();
}

criterion_group!(benches, bench_strategies, bench_beam);
criterion_main!(benches);
