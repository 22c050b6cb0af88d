//! End-to-end broadcast runs: full simulations to completion under the
//! baseline sources (the numbers behind experiment E3's scaling).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use treecast_adversary::UniformRandomAdversary;
use treecast_core::{run_workload, Broadcast, SimulationConfig, StaticSource};
use treecast_trees::generators;

fn bench_static_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("run_static_path");
    for n in [64usize, 256, 1024] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, &n| {
            bencher.iter(|| {
                let mut source = StaticSource::new(generators::path(n));
                run_workload(n, &mut source, &Broadcast, SimulationConfig::for_n(n)).rounds
            });
        });
    }
    group.finish();
}

fn bench_static_star(c: &mut Criterion) {
    let mut group = c.benchmark_group("run_static_star");
    for n in [64usize, 1024] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, &n| {
            bencher.iter(|| {
                let mut source = StaticSource::new(generators::star(n));
                run_workload(n, &mut source, &Broadcast, SimulationConfig::for_n(n)).rounds
            });
        });
    }
    group.finish();
}

fn bench_uniform_random(c: &mut Criterion) {
    let mut group = c.benchmark_group("run_uniform_random");
    group.sample_size(20);
    for n in [64usize, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, &n| {
            bencher.iter(|| {
                let mut source = UniformRandomAdversary::new(9);
                run_workload(n, &mut source, &Broadcast, SimulationConfig::for_n(n)).rounds
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_static_path,
    bench_static_star,
    bench_uniform_random
);
criterion_main!(benches);
