//! Substrate microbenches: matrix product (Definition 2.1) and the
//! column-view round application it competes against.
//!
//! `boolmatrix_compose` measures the allocation-free
//! [`BoolMatrix::compose_into`] kernel (the hot path every consumer crate
//! uses since the flat-storage rewrite); `boolmatrix_compose_alloc` keeps
//! the allocating wrapper measurable for comparison. The density sweep
//! exercises all three kernel regimes: 1% rides the sparse path, 10% the
//! tiled path, 50% the tiled path's saturation early-exit.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use treecast_bench::composebench::random_matrix;
use treecast_bitmatrix::BoolMatrix;
use treecast_core::BroadcastState;
use treecast_nonsplit::generators as nonsplit_gen;
use treecast_trees::random;

fn bench_compose(c: &mut Criterion) {
    let mut group = c.benchmark_group("boolmatrix_compose");
    let mut rng = StdRng::seed_from_u64(1);
    for n in [64usize, 256, 1024] {
        let a = random_matrix(n, 10, &mut rng);
        let b = random_matrix(n, 10, &mut rng);
        let mut out = BoolMatrix::zeros(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, _| {
            bencher.iter(|| {
                a.compose_into(&b, &mut out);
                out.edge_count()
            });
        });
    }
    group.finish();
}

fn bench_compose_alloc(c: &mut Criterion) {
    let mut group = c.benchmark_group("boolmatrix_compose_alloc");
    let mut rng = StdRng::seed_from_u64(1);
    for n in [64usize, 256, 1024] {
        let a = random_matrix(n, 10, &mut rng);
        let b = random_matrix(n, 10, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, _| {
            bencher.iter(|| a.compose(&b));
        });
    }
    group.finish();
}

/// Density sweep at n = 1024: 1% (sparse-adjacent), 10% (the ROADMAP
/// reference point) and 50% (saturation-dominated).
fn bench_compose_density(c: &mut Criterion) {
    let mut group = c.benchmark_group("boolmatrix_compose_density");
    let mut rng = StdRng::seed_from_u64(4);
    let n = 1024usize;
    for density in [1u32, 10, 50] {
        let a = random_matrix(n, density, &mut rng);
        let b = random_matrix(n, density, &mut rng);
        let mut out = BoolMatrix::zeros(n);
        group.bench_with_input(
            BenchmarkId::new(&format!("d{density}pct"), n),
            &n,
            |bencher, _| {
                bencher.iter(|| {
                    a.compose_into(&b, &mut out);
                    out.edge_count()
                });
            },
        );
    }
    group.finish();
}

fn bench_apply_tree(c: &mut Criterion) {
    let mut group = c.benchmark_group("state_apply_tree");
    let mut rng = StdRng::seed_from_u64(3);
    for n in [64usize, 256, 1024] {
        let tree = random::uniform(n, &mut rng);
        let mut state = BroadcastState::new(n);
        // Warm the state so rows are non-trivial.
        for _ in 0..4 {
            state.apply(&random::uniform(n, &mut rng));
        }
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, _| {
            bencher.iter(|| {
                let mut s = state.clone();
                s.apply(&tree);
                s.edge_count()
            });
        });
    }
    group.finish();
}

/// One non-tree round through `BroadcastState::apply_matrix` — the
/// scratch-buffer double-buffering this measures used to be a
/// `transpose()` plus n fresh bitset allocations per round.
fn bench_apply_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("state_apply_matrix");
    for n in [64usize, 256, 1024] {
        let round = nonsplit_gen::grid(n);
        let mut state = BroadcastState::new(n);
        // Warm to steady state: the heard sets saturate and the scratch
        // buffer is allocated, so the loop below measures pure word work.
        for _ in 0..4 {
            state.apply_matrix(&round);
        }
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, _| {
            bencher.iter(|| {
                state.apply_matrix(&round);
                state.edge_count()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_compose,
    bench_compose_alloc,
    bench_compose_density,
    bench_apply_tree,
    bench_apply_matrix
);
criterion_main!(benches);
