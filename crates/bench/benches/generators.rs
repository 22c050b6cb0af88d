//! Tree-generation throughput: the workload side of every experiment.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use treecast_trees::{enumerate, generators, pruefer, random};

const UNIFORM_SIZES: [usize; 5] = [16, 256, 4096, 10_000, 100_000];

fn bench_uniform(c: &mut Criterion) {
    let mut group = c.benchmark_group("random_uniform_tree");
    for n in UNIFORM_SIZES {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, &n| {
            let mut rng = StdRng::seed_from_u64(1);
            bencher.iter(|| random::uniform(n, &mut rng));
        });
    }
    group.finish();
}

/// The same draws as `random_uniform_tree`, into one reused tree: what a
/// seeded frontier source pays per round.
fn bench_uniform_into(c: &mut Criterion) {
    let mut group = c.benchmark_group("random_uniform_tree_into");
    for n in UNIFORM_SIZES {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, &n| {
            let mut rng = StdRng::seed_from_u64(1);
            let mut tree = random::uniform(n, &mut rng);
            bencher.iter(|| {
                random::uniform_into(&mut tree, n, &mut rng);
                tree.root()
            });
        });
    }
    group.finish();
}

/// Clone and drop of a fixed tree: what a static dense source pays per
/// round.
fn bench_tree_clone(c: &mut Criterion) {
    let path = generators::path(1024);
    c.bench_function("path_clone_drop_1024", |b| b.iter(|| path.clone()));
}

fn bench_exact_leaves(c: &mut Criterion) {
    let mut group = c.benchmark_group("random_exact_leaves");
    for n in [64usize, 1024] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, &n| {
            let mut rng = StdRng::seed_from_u64(2);
            bencher.iter(|| random::with_exact_leaves(n, n / 4, &mut rng));
        });
    }
    group.finish();
}

fn bench_pruefer_roundtrip(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let tree = random::uniform(1024, &mut rng);
    c.bench_function("pruefer_encode_decode_1024", |b| {
        b.iter(|| {
            let seq = pruefer::encode(&tree);
            pruefer::decode(&seq).len()
        });
    });
}

fn bench_enumeration(c: &mut Criterion) {
    let mut group = c.benchmark_group("enumerate_all_trees");
    group.sample_size(10);
    for n in [4usize, 5, 6] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, &n| {
            bencher.iter(|| {
                let mut count = 0u64;
                enumerate::for_each_rooted_tree(n, |_| count += 1);
                count
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_uniform,
    bench_uniform_into,
    bench_tree_clone,
    bench_exact_leaves,
    bench_pruefer_roundtrip,
    bench_enumeration
);
criterion_main!(benches);
