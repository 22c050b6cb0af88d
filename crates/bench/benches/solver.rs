//! Exact-solver scaling (experiment E7's compute budget). `n = 6` runs in
//! seconds and `n = 7` in hours with the layered engine; both are
//! deliberately excluded here — the `bench_solver` binary and the
//! experiments binary cover them.

#![allow(
    clippy::expect_used,
    reason = "a benchmark body aborts loudly on a failed setup"
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use treecast_solver::{solve_with, SolveOptions, SuccessorGen, TreePool};

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver_exact");
    group.sample_size(10);
    for n in [3usize, 4, 5] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, &n| {
            bencher.iter(|| {
                solve_with(
                    n,
                    SolveOptions {
                        skip_schedule: true,
                        ..Default::default()
                    },
                )
                .expect("small n solves")
                .t_star
            });
        });
    }
    group.finish();
}

fn bench_canonicalization_modes(c: &mut Criterion) {
    use treecast_solver::CanonMode;
    let mut group = c.benchmark_group("solver_canon_mode_n5");
    group.sample_size(10);
    for (label, mode) in [
        ("exact", CanonMode::Exact),
        ("fast", CanonMode::Fast),
        ("none", CanonMode::None),
    ] {
        group.bench_function(label, |bencher| {
            bencher.iter(|| {
                solve_with(
                    5,
                    SolveOptions {
                        canon: mode,
                        skip_schedule: true,
                        ..Default::default()
                    },
                )
                .expect("n = 5 solves")
                .t_star
            });
        });
    }
    group.finish();
}

fn bench_thread_sharding(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver_threads_n5");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |bencher, &threads| {
                bencher.iter(|| {
                    solve_with(
                        5,
                        SolveOptions {
                            skip_schedule: true,
                            threads,
                            ..Default::default()
                        },
                    )
                    .expect("n = 5 solves")
                    .t_star
                });
            },
        );
    }
    group.finish();
}

/// The expansion primitive head-to-head: vector streaming with the early
/// witness cut versus brute-force application of all `n^(n−1)` trees.
fn bench_successor_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("successor_generation_n5");
    group.sample_size(10);
    let n = 5;
    let state = treecast_solver::state::identity_state(n);
    let mut gen = SuccessorGen::new(n);
    group.bench_function("vector_stream", |bencher| {
        bencher.iter(|| gen.minimal_successors(state).len());
    });
    let pool = TreePool::new(n);
    group.bench_function("tree_pool_reference", |bencher| {
        bencher.iter(|| pool.minimal_successors_streaming(state).len());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_solver,
    bench_canonicalization_modes,
    bench_thread_sharding,
    bench_successor_generation
);
criterion_main!(benches);
